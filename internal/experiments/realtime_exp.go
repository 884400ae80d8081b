package experiments

import (
	"context"
	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/report"
	"igpucomm/internal/stream"
)

// RealtimeData evaluates the case studies as continuous pipelines — the
// deployment the paper motivates (§I) and appeals to when excluding the Nano
// from the ORB study (§IV-C). The SH-WFS adaptive-optics loop must close at
// 1 kHz; the SLAM front-end consumes a 30 Hz camera.
type RealtimeData struct {
	// Stats[board][app][model].
	Stats map[string]map[string]map[string]stream.Stats
}

// Loop rates of the two case studies.
const (
	SHWFSLoopHz = 1000.0
	ORBCameraHz = 30.0
)

// TableRealtime runs the streaming analysis.
func TableRealtime(ctx context.Context, c *Context) (report.Table, RealtimeData, error) {
	data := RealtimeData{Stats: map[string]map[string]map[string]stream.Stats{}}
	t := report.Table{
		Title:   "Real-time — sustained loop analysis (SH-WFS @ 1 kHz AO loop, ORB @ 30 Hz camera)",
		Headers: []string{"Board", "App", "Model", "Service µs", "Util %", "Sustainable", "Power W"},
		Note:    "the communication model decides real-time feasibility: ZC pushes TX2's AO loop past its budget while buying Xavier headroom",
	}
	type appCase struct {
		name string
		rate float64
	}
	cases := []appCase{
		{"shwfs", SHWFSLoopHz},
		{"orbslam", ORBCameraHz},
	}
	for _, board := range []string{devices.NanoName, devices.TX2Name, devices.XavierName} {
		s, err := c.SoC(board)
		if err != nil {
			return report.Table{}, RealtimeData{}, err
		}
		data.Stats[board] = map[string]map[string]stream.Stats{}
		for _, ac := range cases {
			if ac.name == "orbslam" && board == devices.NanoName {
				continue // the paper omits the Nano for ORB as well
			}
			w, err := catalog.ByName(ac.name, catalog.Full)
			if err != nil {
				return report.Table{}, RealtimeData{}, err
			}
			data.Stats[board][ac.name] = map[string]stream.Stats{}
			cfg := stream.Config{RateHz: ac.rate, Frames: 128}
			for _, m := range []comm.Model{comm.SC{}, comm.ZC{}} {
				st, err := stream.Run(s, w, m, cfg)
				if err != nil {
					return report.Table{}, RealtimeData{}, err
				}
				data.Stats[board][ac.name][m.Name()] = st
				t.AddRow(board, ac.name, m.Name(),
					st.Service.Seconds()*1e6, st.Utilization*100, st.Sustainable,
					st.EnergyPerSecond)
			}
		}
	}
	return t, data, nil
}
