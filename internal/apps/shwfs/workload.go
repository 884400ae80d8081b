package shwfs

import (
	"fmt"

	"igpucomm/internal/comm"
	"igpucomm/internal/cpu"
	"igpucomm/internal/gpu"
	"igpucomm/internal/isa"
)

// WorkloadParams maps the algorithm onto the simulated SoC: how the frame is
// striped into kernel launches and how deep the per-pixel GPU work is. The
// defaults mirror the stream-processing implementation the paper tunes
// (thread-per-pixel, warp-shuffle reduction, windowing).
type WorkloadParams struct {
	Config
	// Launches is the number of kernel launches per frame (the stripe
	// count; Table II's "copy time per kernel" divides by it).
	Launches int
	// PerPixelOps is the FP work per pixel in the GPU kernel: threshold
	// test, window function, weighting FMAs and the per-pixel share of the
	// multi-stage reduction the stream-processing formulation uses.
	PerPixelOps int
	// ReduceSteps models the warp-shuffle reduction depth per pixel slot.
	ReduceSteps int
	// CPUPasses is how many sampled statistics passes the CPU makes over
	// the frame (background estimation, threshold update).
	CPUPasses int
	// CPUSampleStride is the byte stride of those passes — the CPU reads
	// one word per stride (the AO loop samples the frame; the full
	// per-pixel work lives on the GPU).
	CPUSampleStride int64
	// Warmup iterations before the measured one.
	Warmup int
}

// DefaultWorkloadParams returns the paper-scale configuration: a 512x512
// detector as 32x32 subapertures of 16x16 px, striped into 4 launches.
func DefaultWorkloadParams() WorkloadParams {
	return WorkloadParams{
		Config:          Config{SubapsX: 32, SubapsY: 32, SubapPx: 16, Threshold: 10},
		Launches:        4,
		PerPixelOps:     200,
		ReduceSteps:     8,
		CPUPasses:       2,
		CPUSampleStride: 256,
		Warmup:          1,
	}
}

// Validate checks the workload parameters.
func (p WorkloadParams) Validate() error {
	if err := p.Config.Validate(); err != nil {
		return err
	}
	if p.Launches <= 0 {
		return fmt.Errorf("shwfs: launches must be positive")
	}
	if p.SubapsY%p.Launches != 0 {
		return fmt.Errorf("shwfs: %d subaperture rows not divisible into %d launches", p.SubapsY, p.Launches)
	}
	if p.PerPixelOps < 0 || p.ReduceSteps < 0 || p.CPUPasses <= 0 || p.Warmup < 0 {
		return fmt.Errorf("shwfs: negative workload parameter")
	}
	if p.CPUSampleStride <= 0 {
		return fmt.Errorf("shwfs: CPU sample stride must be positive")
	}
	return nil
}

// Workload builds the comm.Workload that reproduces this application's
// memory behaviour on the simulator:
//
//   - CPU task: CPUPasses streaming passes over the frame (write-back on the
//     first — dark subtraction; read-only after). The second and later
//     passes are served by the CPU LLC, which is exactly the locality that
//     makes the app CPU-cache-dependent on Nano/TX2 (Table II).
//   - GPU kernels: one stripe of subaperture rows per launch,
//     thread-per-pixel, coalesced loads, PerPixelOps of FP work plus a
//     shuffle reduction, one 4-byte store per pixel slot into the
//     per-subaperture accumulator.
//   - CPU post: converts the reduced accumulators to slopes (a division per
//     axis per subaperture).
func Workload(p WorkloadParams) (comm.Workload, error) {
	if err := p.Validate(); err != nil {
		return comm.Workload{}, err
	}
	frameBytes := int64(p.FrameW()) * int64(p.FrameH()) * 4
	centBytes := int64(p.Subaps()) * 16
	pxPerLaunch := p.FrameW() * p.FrameH() / p.Launches

	return comm.Workload{
		Name:        "shwfs",
		Fingerprint: comm.Fingerprint("shwfs", p),
		In:          []comm.BufferSpec{{Name: "frame", Size: frameBytes}},
		Out:         []comm.BufferSpec{{Name: "centroids", Size: centBytes}},
		CPUTask: func(c *cpu.CPU, lay comm.Layout) {
			// Sampled background/threshold statistics over the frame: one
			// word per CPUSampleStride bytes, CPUPasses times. The first
			// pass misses the CPU caches; later passes are served by the
			// LLC (the sampled set exceeds L1), which is the locality
			// behind the app's CPU cache usage in Table II.
			frame := lay.Addr("frame")
			for pass := 0; pass < p.CPUPasses; pass++ {
				for off := int64(0); off < frameBytes; off += p.CPUSampleStride {
					c.Load(frame+off, 4)
					c.Work(isa.FMA, 2)
				}
			}
		},
		MakeKernel: func(lay comm.Layout, launch int) gpu.Kernel {
			frame := lay.Addr("frame")
			cents := lay.Addr("centroids")
			stripeBase := int64(launch) * int64(pxPerLaunch)
			return gpu.Kernel{
				Name:    fmt.Sprintf("shwfs-centroid-%d", launch),
				Threads: pxPerLaunch,
				Program: func(tid int, prog *isa.Program) {
					pxIdx := stripeBase + int64(tid)
					prog.Ld(frame+pxIdx*4, 4)
					// Threshold test + window + weighting.
					prog.Compute(isa.FMA, p.PerPixelOps)
					// Warp-shuffle reduction steps (register traffic only).
					prog.Compute(isa.AddS32, p.ReduceSteps)
					// Accumulator store: every lane targets its
					// subaperture's slot; lanes of a warp span at most two
					// subapertures, so the store coalesces to 1-2 lines.
					y := int(pxIdx) / p.FrameW()
					x := int(pxIdx) % p.FrameW()
					subap := int64((y/p.SubapPx)*p.SubapsX + x/p.SubapPx)
					prog.St(cents+subap*16, 4)
				},
			}
		},
		CPUPost: func(c *cpu.CPU, lay comm.Layout) {
			cents := lay.Addr("centroids")
			for s := int64(0); s < int64(p.Subaps()); s++ {
				c.Load(cents+s*16, 12)
				c.Work(isa.DivF32, 2)
			}
		},
		Launches: p.Launches,
		Warmup:   p.Warmup,
	}, nil
}
