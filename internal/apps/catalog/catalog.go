// Package catalog is the registry of the paper's case-study applications,
// keyed by the names the CLIs and the advisory service accept. It exists so
// cmd/advisor, cmd/advisord and the test suites resolve "shwfs" to the same
// workload construction instead of each carrying its own switch.
package catalog

import (
	"fmt"
	"sort"

	"igpucomm/internal/apps/lanedet"
	"igpucomm/internal/apps/orbslam"
	"igpucomm/internal/apps/shwfs"
	"igpucomm/internal/comm"
)

// Scale selects the workload size.
type Scale int

// Workload scales.
const (
	// Full is the paper-scale configuration (each app's
	// DefaultWorkloadParams).
	Full Scale = iota
	// Quick is a reduced configuration with the same structure — the same
	// buffers, launch schedule and access patterns at a fraction of the
	// footprint — for tests, benchmarks and -quick CLI runs.
	Quick
	// Micro is the smallest configuration that still exercises every
	// structural element (all buffers, at least one launch per kernel,
	// both reduce and per-pixel phases) at each app's validated minimum
	// frame size. Its absolute numbers are meaningless; it exists for
	// harnesses that need thousands of advisory calls per second — the
	// deterministic simulation tests sweep hundreds of seeded fleet
	// scenarios and pay the workload simulation on every step.
	Micro
)

var builders = map[string]func(Scale) (comm.Workload, error){
	"shwfs": func(sc Scale) (comm.Workload, error) {
		p := shwfs.DefaultWorkloadParams()
		switch sc {
		case Quick:
			p.Config = shwfs.Config{SubapsX: 8, SubapsY: 8, SubapPx: 8, Threshold: 10}
			p.Launches = 2
			p.PerPixelOps = 50
			p.ReduceSteps = 4
		case Micro:
			p.Config = shwfs.Config{SubapsX: 2, SubapsY: 2, SubapPx: 4, Threshold: 10}
			p.Launches = 1
			p.PerPixelOps = 4
			p.ReduceSteps = 1
		}
		return shwfs.Workload(p)
	},
	"orbslam": func(sc Scale) (comm.Workload, error) {
		p := orbslam.DefaultWorkloadParams()
		switch sc {
		case Quick:
			p.FrameW, p.FrameH = 160, 120
			p.Frontend.Levels = 3
			p.Frontend.MaxPerLevel = 32
			p.PerPixelOps = 16
			p.DescLoads = 8
			p.DescOps = 20
			p.MatchComparisons = 5000
		case Micro:
			p.FrameW, p.FrameH = 64, 64 // orbslam's validated minimum
			p.Frontend.Levels = 2
			p.Frontend.MaxPerLevel = 8
			p.PerPixelOps = 2
			p.DescLoads = 2
			p.DescOps = 4
			p.MatchComparisons = 100
		}
		return orbslam.Workload(p)
	},
	"lanedet": func(sc Scale) (comm.Workload, error) {
		p := lanedet.DefaultWorkloadParams()
		switch sc {
		case Quick:
			p.FrameW, p.FrameH = 96, 64
			p.SobelOps = 6
			p.VoteOps = 2
			p.TrackOps = 2
		case Micro:
			p.FrameW, p.FrameH = 32, 32 // lanedet's validated minimum
			p.SobelOps = 1
			p.VoteOps = 1
			p.TrackOps = 1
		}
		return lanedet.Workload(p)
	},
}

// Names lists the catalogued application names, sorted.
func Names() []string {
	names := make([]string, 0, len(builders))
	for n := range builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ByName builds the named application's workload at the given scale.
func ByName(name string, sc Scale) (comm.Workload, error) {
	b, ok := builders[name]
	if !ok {
		return comm.Workload{}, fmt.Errorf("catalog: unknown application %q (have %v)", name, Names())
	}
	return b(sc)
}
