package orbslam

import (
	"fmt"

	"igpucomm/internal/comm"
	"igpucomm/internal/cpu"
	"igpucomm/internal/gpu"
	"igpucomm/internal/imgutil"
	"igpucomm/internal/isa"
)

// WorkloadParams maps the ORB front-end onto the simulated SoC.
type WorkloadParams struct {
	Frontend FrontendConfig
	// FrameW and FrameH are the level-0 camera dimensions.
	FrameW, FrameH int
	// PerPixelOps is the fused detector kernel's per-pixel FP work (the
	// segment test, NMS and the orientation patch contribution). The real
	// port stages tiles in shared memory, so each global pixel is LOADED
	// ONCE; the ring probes themselves are explicit ld.shared ops in the
	// kernel and are not counted here.
	PerPixelOps int
	// DescLoads and DescOps are the per-keypoint descriptor kernel's
	// pattern loads and compute depth.
	DescLoads, DescOps int
	// MatchComparisons is the CPU-side matching work per frame: each
	// comparison streams one 32-byte descriptor and computes its Hamming
	// distance against the query. This is where ORB-SLAM's CPU time goes,
	// and — because the feature buffer is pinned under ZC — where the
	// TX2 catastrophe of Table V comes from.
	MatchComparisons int
	// Seed generates the synthetic scene the keypoint placement derives
	// from (the descriptor kernel's addresses come from a real functional
	// detection pass over this scene).
	Seed   uint64
	Warmup int
}

// DefaultWorkloadParams returns the paper-scale configuration: 640x480
// frames, 8 pyramid levels.
func DefaultWorkloadParams() WorkloadParams {
	return WorkloadParams{
		Frontend: FrontendConfig{
			Detector:    DetectorConfig{Threshold: 20, Border: 16},
			Levels:      8,
			MaxPerLevel: 128,
		},
		FrameW: 640, FrameH: 480,
		PerPixelOps:      66,
		DescLoads:        32,
		DescOps:          80,
		MatchComparisons: 100_000,
		Seed:             7,
		Warmup:           1,
	}
}

// Validate checks the parameters.
func (p WorkloadParams) Validate() error {
	if err := p.Frontend.Validate(); err != nil {
		return err
	}
	if p.FrameW < 64 || p.FrameH < 64 {
		return fmt.Errorf("orbslam: frame %dx%d too small for the pyramid", p.FrameW, p.FrameH)
	}
	if p.PerPixelOps <= 0 || p.DescLoads <= 0 || p.DescOps < 0 {
		return fmt.Errorf("orbslam: kernel depths must be positive")
	}
	if p.MatchComparisons < 0 || p.Warmup < 0 {
		return fmt.Errorf("orbslam: negative workload parameter")
	}
	return nil
}

// ringProbes is the FAST ring size staged through shared memory.
const ringProbes = 16

// levelGeometry precomputes per-level dimensions and scratch offsets.
type levelGeometry struct {
	w, h   int
	offset int64 // byte offset of the level inside the pyramid scratch
}

func levels(p WorkloadParams) []levelGeometry {
	var out []levelGeometry
	w, h := p.FrameW, p.FrameH
	var off int64
	for l := 0; l < p.Frontend.Levels; l++ {
		if w <= 2*p.Frontend.Detector.Border || h <= 2*p.Frontend.Detector.Border {
			break
		}
		out = append(out, levelGeometry{w: w, h: h, offset: off})
		off += int64(w) * int64(h) * 4
		w /= 2
		h /= 2
	}
	return out
}

// Workload builds the comm.Workload for the front-end. Buffer roles:
//
//   - In "config": the detector parameter block (threshold LUTs) — the only
//     host-to-device transfer per frame; it is tiny, which is why the
//     paper's Table IV reports copy times of ~1.5µs per kernel.
//   - Out "features": keypoints + descriptors coming back to the CPU.
//   - Scratch "pyramid" and "scores": camera DMA target, pyramid levels and
//     score maps — GPU working storage that never crosses under SC but is
//     pinned (and therefore slow) under ZC.
//
// Launch schedule: one detector kernel per pyramid level, then one
// descriptor kernel per level, using keypoint positions from a real
// functional detection over the synthetic scene.
func Workload(p WorkloadParams) (comm.Workload, error) {
	if err := p.Validate(); err != nil {
		return comm.Workload{}, err
	}
	lvls := levels(p)
	if len(lvls) == 0 {
		return comm.Workload{}, fmt.Errorf("orbslam: no usable pyramid levels")
	}

	// Run the functional pipeline once to place real keypoints.
	scene := imgutil.TexturedScene(p.FrameW, p.FrameH, 24, p.Seed)
	feats, err := ExtractFeatures(p.Frontend, scene)
	if err != nil {
		return comm.Workload{}, err
	}
	kpsByLevel := make([][]Keypoint, len(lvls))
	for _, f := range feats {
		if f.Level < len(lvls) {
			kpsByLevel[f.Level] = append(kpsByLevel[f.Level], f.Keypoint)
		}
	}

	var pyramidBytes int64
	for _, lg := range lvls {
		pyramidBytes += int64(lg.w) * int64(lg.h) * 4
	}
	const featureStride = 48 // 16B keypoint + 32B descriptor
	maxFeatures := p.Frontend.MaxPerLevel * len(lvls)
	featBytes := int64(maxFeatures) * featureStride

	return comm.Workload{
		Name:        "orbslam",
		Fingerprint: comm.Fingerprint("orbslam", p),
		In:          []comm.BufferSpec{{Name: "config", Size: 4096}},
		Out:         []comm.BufferSpec{{Name: "features", Size: featBytes}},
		Scratch: []comm.BufferSpec{
			{Name: "pyramid", Size: pyramidBytes},
			{Name: "scores", Size: int64(p.FrameW) * int64(p.FrameH) * 4},
		},
		CPUTask: func(c *cpu.CPU, lay comm.Layout) {
			// Descriptor matching against the previous frame: stream one
			// 32-byte descriptor per comparison and compute the Hamming
			// distance (XOR + popcount chains). The working set is the
			// feature buffer — L1/LLC-resident when cacheable, a pinned
			// uncached buffer under ZC on non-coherent devices.
			feat := lay.Addr("features")
			for i := 0; i < p.MatchComparisons; i++ {
				slot := int64(i) % int64(maxFeatures)
				c.Load(feat+slot*featureStride+16, 32)
				c.Work(isa.AddS32, 16) // 8x XOR + 8x popcount
				c.Work(isa.FMA, 8)     // score bookkeeping
			}
		},
		MakeKernel: func(lay comm.Layout, launch int) gpu.Kernel {
			if launch < len(lvls) {
				return detectKernel(p, lay, lvls, launch)
			}
			return describeKernel(p, lay, lvls, kpsByLevel, launch-len(lvls))
		},
		Launches: 2 * len(lvls),
		Warmup:   p.Warmup,
	}, nil
}

// detectKernel is the fused FAST+NMS+orientation kernel of one level:
// thread-per-pixel, shared-memory staged (one coalesced global load per
// pixel), PerPixelOps of segment-test work, one score store.
func detectKernel(p WorkloadParams, lay comm.Layout, lvls []levelGeometry, level int) gpu.Kernel {
	lg := lvls[level]
	pyramid := lay.Addr("pyramid") + lg.offset
	scores := lay.Addr("scores")
	return gpu.Kernel{
		Name:    fmt.Sprintf("orb-detect-L%d", level),
		Threads: lg.w * lg.h,
		Program: func(tid int, prog *isa.Program) {
			prog.Ld(pyramid+int64(tid)*4, 4)       // tile stage-in, coalesced
			prog.Compute(isa.StShared, 1)          // park the pixel in the tile
			prog.Compute(isa.LdShared, ringProbes) // ring reads from shared memory
			prog.Compute(isa.FMA, p.PerPixelOps)   // segment test, NMS, orientation
			prog.St(scores+int64(tid)*4, 4)        // score map, coalesced
		},
	}
}

// describeKernel computes rBRIEF for the level's real keypoints: one thread
// per (keypoint, pattern-chunk), scattered patch loads, descriptor store.
func describeKernel(p WorkloadParams, lay comm.Layout, lvls []levelGeometry, kps [][]Keypoint, level int) gpu.Kernel {
	lg := lvls[level]
	pyramid := lay.Addr("pyramid") + lg.offset
	feat := lay.Addr("features")
	pts := kps[level]
	threads := p.Frontend.MaxPerLevel
	pattern := briefPattern
	return gpu.Kernel{
		Name:    fmt.Sprintf("orb-describe-L%d", level),
		Threads: threads,
		Program: func(tid int, prog *isa.Program) {
			// Threads beyond the real keypoint count run predicated on a
			// border position (real kernels round up the grid the same way).
			x, y := p.Frontend.Detector.Border, p.Frontend.Detector.Border
			if tid < len(pts) {
				x, y = pts[tid].X, pts[tid].Y
			}
			base := pyramid + (int64(y)*int64(lg.w)+int64(x))*4
			for i := 0; i < p.DescLoads; i++ {
				pp := pattern[(i*7)%DescriptorBits]
				off := (int64(pp.ay)*int64(lg.w) + int64(pp.ax)) * 4
				prog.Ld(base+off, 4)
			}
			prog.Compute(isa.FMA, p.DescOps)
			slot := int64(level*p.Frontend.MaxPerLevel + tid)
			prog.St(feat+slot*48+16, 32)
		},
	}
}
