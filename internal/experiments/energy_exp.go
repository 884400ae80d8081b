package experiments

import (
	"context"
	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/report"
)

// EnergyData quantifies the per-frame energy of each model and the J/s
// savings the paper reports in prose (§IV-B: 0.12 J/s on Xavier and 0.09 J/s
// on TX2 for SH-WFS; §IV-C: 0.17 J/s on Xavier for ORB-SLAM at 30 Hz).
type EnergyData struct {
	// JoulesPerFrame[board][app][model].
	JoulesPerFrame map[string]map[string]map[string]float64
	// BestModelSavingJPerS[board][app] is the energy saved per second by
	// the framework's recommended model versus SC, at 30 Hz.
	BestModelSavingJPerS map[string]map[string]float64
}

// TableEnergy regenerates the energy accounting for both case studies.
func TableEnergy(ctx context.Context, c *Context) (report.Table, EnergyData, error) {
	data := EnergyData{
		JoulesPerFrame:       map[string]map[string]map[string]float64{},
		BestModelSavingJPerS: map[string]map[string]float64{},
	}
	t := report.Table{
		Title:   "Energy — per-frame energy by model and SC->ZC saving at 30 Hz",
		Headers: []string{"Board", "App", "SC mJ", "UM mJ", "ZC mJ", "ZC saving J/s"},
		Note:    "paper prose: SH-WFS saves 0.12 J/s (Xavier) / 0.09 J/s (TX2); ORB-SLAM saves 0.17 J/s (Xavier); savings only count where ZC performance holds",
	}
	for _, board := range []string{devices.TX2Name, devices.XavierName} {
		s, err := c.SoC(board)
		if err != nil {
			return report.Table{}, EnergyData{}, err
		}
		data.JoulesPerFrame[board] = map[string]map[string]float64{}
		data.BestModelSavingJPerS[board] = map[string]float64{}
		for _, app := range []string{"shwfs", "orbslam"} {
			w, err := catalog.ByName(app, catalog.Full)
			if err != nil {
				return report.Table{}, EnergyData{}, err
			}
			frames := map[string]float64{}
			var scRep, zcRep comm.Report
			for _, m := range comm.Models() {
				rep, err := m.Run(s, w)
				if err != nil {
					return report.Table{}, EnergyData{}, err
				}
				frames[m.Name()] = s.Config().Power.Joules(rep.Energy)
				switch m.Name() {
				case "sc":
					scRep = rep
				case "zc":
					zcRep = rep
				}
			}
			data.JoulesPerFrame[board][app] = frames
			saving := s.Config().Power.SavingPerSecond(scRep.Energy, zcRep.Energy, Table3IterationRate)
			data.BestModelSavingJPerS[board][app] = saving
			t.AddRow(board, app,
				frames["sc"]*1e3, frames["um"]*1e3, frames["zc"]*1e3, saving)
		}
	}
	return t, data, nil
}
