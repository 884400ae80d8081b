package framework

import (
	"fmt"

	"igpucomm/internal/comm"
	"igpucomm/internal/soc"
)

// Degraded-mode advice: when no device characterization is available — the
// cache is corrupt, the micro-benchmarks keep failing, the circuit breaker
// is open — advisord still answers, using only what is knowable without
// running anything: the workload's declared buffer topology and the device's
// static coherence capability. This is the paper's Fig-2 decision flow with
// the measured classification inputs replaced by structural proxies:
//
//   - A scratch-dominated kernel (GPU-side working storage larger than the
//     transferred set) is the structural signature of cache dependence — the
//     ORB-SLAM case in Table V — so a copying model is kept or suggested.
//   - Otherwise, on a non-coherent device a non-overlappable workload has no
//     overlap credit to pay for ZC's uncached CPU path, so the current model
//     is kept (the conditional zone's conservative answer).
//   - Otherwise ZC is suggested: copy elimination is the one gain that needs
//     no measurement to exist (eqn 3's CopyTime term), though its magnitude
//     is unknown, so no speedup is estimated.
//
// Degraded recommendations always carry SpeedupRatio 1 (no estimate) and a
// rationale prefixed "degraded heuristic".

// scratchDominanceRatio is the scratch share of total declared bytes above
// which the heuristic treats the kernel as cache-dependent.
const scratchDominanceRatio = 0.5

// HeuristicAdvise is the threshold-only fallback of the Fig-2 decision flow:
// advice from the workload's declared buffers and the device's static
// configuration alone, with no characterization or profiling. It powers
// advisord's degraded mode.
func HeuristicAdvise(cfg soc.Config, w comm.Workload, currentModel string) (Recommendation, error) {
	if err := checkCurrentModel(currentModel); err != nil {
		return Recommendation{}, err
	}
	transfer := specBytes(w.In) + specBytes(w.Out)
	scratch := specBytes(w.Scratch)
	total := transfer + scratch

	rec := Recommendation{
		Platform:     cfg.Name,
		Workload:     w.Name,
		CurrentModel: currentModel,
		SpeedupRatio: 1,
	}

	switch {
	case total > 0 && float64(scratch)/float64(total) > scratchDominanceRatio:
		// Scratch-dominated: the kernel's working set lives GPU-side, the
		// structural proxy for heavy GPU cache use.
		rec.Zone = ZoneCacheDependent
		rec.GPUDependent = true
		rec.Suggested = currentModel
		if currentModel == "zc" {
			rec.Suggested = "sc"
		}
		rec.Rationale = fmt.Sprintf(
			"degraded heuristic: scratch buffers are %d of %d declared bytes — kernel working set is GPU-resident, a copying model is the safe choice",
			scratch, total)
	case !cfg.IOCoherent && !w.Overlappable:
		// Conditional-zone stance without measurements: no overlap credit
		// to pay for ZC's uncached CPU path on a non-coherent device.
		rec.Zone = ZoneZCConditional
		rec.Suggested = currentModel
		rec.Rationale = fmt.Sprintf(
			"degraded heuristic: %s has no I/O coherence and the workload declares no CPU/GPU overlap; keeping %s avoids an unmeasurable ZC kernel penalty",
			cfg.Name, currentModel)
	default:
		rec.Zone = ZoneZCSafe
		rec.Suggested = "zc"
		rec.EnergyAdvantage = true
		rec.Rationale = fmt.Sprintf(
			"degraded heuristic: %d transfer bytes per iteration and no structural cache dependence; zero-copy eliminates the copies (speedup not estimable without characterization)",
			transfer)
	}
	return rec, nil
}

func specBytes(specs []comm.BufferSpec) int64 {
	var n int64
	for _, s := range specs {
		n += s.Size
	}
	return n
}
