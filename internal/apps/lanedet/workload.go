package lanedet

import (
	"fmt"
	"math"

	"igpucomm/internal/comm"
	"igpucomm/internal/cpu"
	"igpucomm/internal/gpu"
	"igpucomm/internal/isa"
)

// WorkloadParams maps the pipeline onto the simulated SoC.
type WorkloadParams struct {
	Config
	// FrameW and FrameH are the camera dimensions.
	FrameW, FrameH int
	// SobelOps is the per-pixel compute of the gradient kernel.
	SobelOps int
	// VoteOps is the per-(pixel, theta-bin) compute of the Hough kernel.
	VoteOps int
	// TrackOps is the CPU-side per-accumulator-word work (peak scan +
	// temporal smoothing against the previous frame).
	TrackOps int
	Warmup   int
}

// DefaultWorkloadParams returns a 320x240 forward-camera configuration.
func DefaultWorkloadParams() WorkloadParams {
	return WorkloadParams{
		Config: DefaultConfig(),
		FrameW: 320, FrameH: 240,
		SobelOps: 14,
		VoteOps:  4,
		TrackOps: 3,
		Warmup:   1,
	}
}

// Validate checks the parameters.
func (p WorkloadParams) Validate() error {
	if err := p.Config.Validate(); err != nil {
		return err
	}
	if p.FrameW < 32 || p.FrameH < 32 {
		return fmt.Errorf("lanedet: frame %dx%d too small", p.FrameW, p.FrameH)
	}
	if p.SobelOps <= 0 || p.VoteOps <= 0 || p.TrackOps <= 0 {
		return fmt.Errorf("lanedet: kernel depths must be positive")
	}
	if p.Warmup < 0 {
		return fmt.Errorf("lanedet: negative warmup")
	}
	return nil
}

// rhoBins mirrors the functional accumulator sizing.
func (p WorkloadParams) rhoBins() int {
	diag := math.Hypot(float64(p.FrameW), float64(p.FrameH))
	return int(2*diag/p.RhoStep) + 1
}

// Workload builds the comm.Workload for the pipeline:
//
//   - In "frame": the camera frame (copied to the device under SC).
//   - Scratch "edges": the gradient map, produced and consumed on the GPU.
//   - Out "acc": the Hough accumulator the CPU scans for peaks.
//   - Launch 0: Sobel (thread-per-pixel stencil, coalesced row reuse).
//   - Launch 1: Hough voting (thread-per-pixel, scattered accumulator
//     stores — the cache-hostile part).
//   - CPU post: accumulator peak scan + temporal lane smoothing.
func Workload(p WorkloadParams) (comm.Workload, error) {
	if err := p.Validate(); err != nil {
		return comm.Workload{}, err
	}
	frameBytes := int64(p.FrameW) * int64(p.FrameH) * 4
	accBytes := int64(p.ThetaBins) * int64(p.rhoBins()) * 4
	px := p.FrameW * p.FrameH

	return comm.Workload{
		Name:        "lanedet",
		Fingerprint: comm.Fingerprint("lanedet", p),
		In:          []comm.BufferSpec{{Name: "frame", Size: frameBytes}},
		Out:         []comm.BufferSpec{{Name: "acc", Size: accBytes}},
		Scratch: []comm.BufferSpec{
			{Name: "edges", Size: frameBytes},
		},
		CPUTask: func(c *cpu.CPU, lay comm.Layout) {
			// Temporal tracking: scan the previous frame's accumulator for
			// peaks and smooth the lane estimates.
			acc := lay.Addr("acc")
			words := accBytes / 4
			for i := int64(0); i < words; i += 4 {
				c.Load(acc+i*4, 4)
				c.Work(isa.FMA, p.TrackOps)
			}
		},
		MakeKernel: func(lay comm.Layout, launch int) gpu.Kernel {
			frame := lay.Addr("frame")
			edges := lay.Addr("edges")
			acc := lay.Addr("acc")
			if launch == 0 {
				return gpu.Kernel{
					Name:    "lanedet-sobel",
					Threads: px,
					Program: func(tid int, prog *isa.Program) {
						// 3x3 stencil: three row-segment loads (row reuse
						// makes the upper rows L1 hits), gradient math,
						// one edge-map store.
						y := tid / p.FrameW
						x := tid % p.FrameW
						for dy := -1; dy <= 1; dy++ {
							ny := clamp(y+dy, 0, p.FrameH-1)
							nx := clamp(x-1, 0, p.FrameW-1)
							prog.Ld(frame+(int64(ny)*int64(p.FrameW)+int64(nx))*4, 12)
						}
						prog.Compute(isa.FMA, p.SobelOps)
						prog.Compute(isa.SqrtF32, 1)
						prog.St(edges+int64(tid)*4, 4)
					},
				}
			}
			rb := int64(p.rhoBins())
			return gpu.Kernel{
				Name:    "lanedet-hough",
				Threads: px,
				Program: func(tid int, prog *isa.Program) {
					// Read the edge value, then vote across the theta bins
					// (predicated: every thread emits the votes; real
					// kernels do too and mask the write). Votes scatter
					// across the accumulator rows.
					prog.Ld(edges+int64(tid)*4, 4)
					for t := 0; t < p.ThetaBins; t += 4 {
						prog.Compute(isa.FMA, p.VoteOps)
						// Deterministic scattered vote address with the
						// same statistics as x·cosθ - y·sinθ quantization.
						bin := (int64(tid)*2654435761 + int64(t)*40503) % rb
						if bin < 0 {
							bin += rb
						}
						prog.St(acc+(int64(t)*rb+bin)*4, 4)
					}
				},
			}
		},
		CPUPost: func(c *cpu.CPU, lay comm.Layout) {
			// Final lane selection over the fresh accumulator.
			acc := lay.Addr("acc")
			words := accBytes / 4
			for i := int64(0); i < words; i += 16 {
				c.Load(acc+i*4, 4)
				c.Work(isa.AddS32, 1)
			}
		},
		Launches: 2,
		Warmup:   p.Warmup,
	}, nil
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
