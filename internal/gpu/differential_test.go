package gpu

// Differential harness for the batch-kernel executor: the compiled path
// (compile once, replay through cache.DoBatch) must be byte-identical to the
// per-access reference executor for EVERY expressible kernel, and its steady
// state must not allocate. The fuzzer generates kernels from raw bytes —
// mixed strides, sizes, pinned and cached lanes, masked slots, partial
// warps — and fails on the first observable divergence.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"igpucomm/internal/heatmap"
	"igpucomm/internal/isa"
	"igpucomm/internal/memdev"
	"igpucomm/internal/units"
)

// pinnedBase is where the fuzz harness maps its pinned window; far above the
// cacheable working set so the two never alias.
const pinnedBase = int64(1) << 20

// twinGPUs builds two identically configured GPUs over separate DRAMs, the
// first forced onto the per-access reference path.
func twinGPUs() (ref, batch *GPU) {
	build := func() *GPU {
		d := memdev.New(memdev.Config{Name: "dram", Latency: 200, Bandwidth: 25 * units.GBps})
		g := New(testConfig(), d.NewPort("gpu-dram", -1))
		g.SetPinnedPath(d.NewUncachedPort("pinned", 600), 2*units.GBps)
		g.AddPinnedRange(pinnedBase, pinnedBase+8192)
		return g
	}
	ref = build()
	ref.SetReferenceMode(true)
	return ref, build()
}

// fuzzKernel decodes the fuzz payload into a convergent kernel: each 4-byte
// group is one slot shared by every thread (SIMT), with per-thread addresses.
// Byte 0 picks the slot kind (compute run, load, store, masked load), byte 1
// the base region (cacheable or pinned), byte 2 the per-thread stride, byte 3
// the access size. A byte 0 of 0xF0 or more confines the slot's lane
// variation to threads past the first 32-lane warp: a masked slot masks odd
// lanes only there, and a load slot turns into a store on odd lanes there —
// the same run shape with a conflicting op, which makes the kernel invalid.
// Returns at most 96 slots — enough for one SM's same-path stretch to
// outgrow a replay chunk — so fuzzing stays fast.
func fuzzKernel(data []byte, threads int) Kernel {
	slots := len(data) / 4
	if slots > 96 {
		slots = 96
	}
	return Kernel{
		Name:    "fuzz",
		Threads: threads,
		Program: func(tid int, p *isa.Program) {
			for s := 0; s < slots; s++ {
				b0, b1, b2, b3 := data[4*s], data[4*s+1], data[4*s+2], data[4*s+3]
				base := int64(b1%64) * 128
				if b1 >= 192 {
					base = pinnedBase + int64(b1%32)*64
				}
				stride := int64(b2 % 9 * 8)
				size := int64(b3%32) + 1
				addr := base + int64(tid)*stride
				varies := tid%2 == 1 && (b0 < 0xF0 || tid >= 32)
				switch b0 % 4 {
				case 0:
					p.Compute(isa.FMA, int(b2%5)+1)
				case 1:
					if varies && b0 >= 0xF0 {
						p.St(addr, size)
					} else {
						p.Ld(addr, size)
					}
				case 2:
					p.St(addr, size)
				case 3:
					// Masked slot: odd lanes sit this one out (predication).
					if varies {
						p.PadTo(p.Len() + 1)
					} else {
						p.Ld(addr, size)
					}
				}
			}
		},
	}
}

// FuzzBatchVsReference is the batch-vs-reference differential fuzzer: any
// decodable kernel must produce an identical Result — times, hit/miss
// deltas, transaction (coalescing) counts, bytes — from the compiled batch
// path and the per-access reference path, and identical errors when it is
// invalid.
func FuzzBatchVsReference(f *testing.F) {
	f.Add([]byte{1, 0, 1, 3, 0, 0, 0, 0, 2, 10, 2, 7}, uint8(64))
	f.Add([]byte{1, 200, 0, 3, 2, 220, 1, 7}, uint8(33))  // pinned read + WC write
	f.Add([]byte{3, 8, 4, 15, 1, 8, 4, 15}, uint8(90))    // masked + partial warp
	f.Add([]byte{2, 63, 8, 31, 1, 63, 8, 31}, uint8(255)) // wide strides, many warps
	for _, s := range boundarySeeds {
		f.Add(s.data, s.nthreads)
	}
	for _, s := range warpSeeds {
		f.Add(s.data, s.nthreads)
	}
	f.Fuzz(func(t *testing.T, data []byte, nthreads uint8) {
		threads := int(nthreads)%128 + 1
		ref, batch := twinGPUs()
		k := fuzzKernel(data, threads)

		want, errRef := ref.Launch(k)
		got, errBatch := batch.Launch(k)
		if fmt.Sprint(errRef) != fmt.Sprint(errBatch) {
			t.Fatalf("error divergence: reference %v, batch %v", errRef, errBatch)
		}
		if errRef != nil {
			return
		}
		if got != want {
			t.Fatalf("result divergence:\nreference: %+v\nbatch:     %+v", want, got)
		}
		// The caches must also end in the same state, not just report the
		// same deltas — replay a second time and compare again (warm-cache
		// behaviour diverges if residency differs).
		want2, _ := ref.Launch(k)
		got2, _ := batch.Launch(k)
		if got2 != want2 {
			t.Fatalf("warm-cache divergence:\nreference: %+v\nbatch:     %+v", want2, got2)
		}
	})
}

// launchVsReference launches k cold and then warm on twin GPUs, with heat
// profiling on or off, and fails on any difference from the reference
// executor: the error text, the Result, or the heat records.
func launchVsReference(t *testing.T, name string, k Kernel, heat bool) {
	t.Helper()
	ref, batch := twinGPUs()
	var refHeat, batchHeat *heatmap.Accumulator
	if heat {
		refHeat, batchHeat = heatmap.New(4<<20, 4096), heatmap.New(4<<20, 4096)
		ref.SetHeat(refHeat)
		batch.SetHeat(batchHeat)
	}
	for pass := 0; pass < 2; pass++ {
		want, errRef := ref.Launch(k)
		got, errBatch := batch.Launch(k)
		if fmt.Sprint(errRef) != fmt.Sprint(errBatch) {
			t.Fatalf("%s (heat %v, pass %d): error divergence:\nreference: %v\nbatch:     %v", name, heat, pass, errRef, errBatch)
		}
		if errRef != nil {
			return
		}
		if got != want {
			t.Fatalf("%s (heat %v, pass %d): result divergence:\nreference: %+v\nbatch:     %+v", name, heat, pass, want, got)
		}
	}
	if heat && (refHeat.Clock() == 0 || !reflect.DeepEqual(refHeat, batchHeat)) {
		t.Fatalf("%s: heat records diverge from the reference (clocks %d vs %d)", name, refHeat.Clock(), batchHeat.Clock())
	}
}

// TestBatchVsReferenceSeeds runs the fuzz seed corpus as a plain test, heat
// off and on, so the differential contract is exercised on every `go test`,
// not only under -fuzz.
func TestBatchVsReferenceSeeds(t *testing.T) {
	seeds := []struct {
		data    []byte
		threads int
	}{
		{[]byte{1, 0, 1, 3, 0, 0, 0, 0, 2, 10, 2, 7}, 64},
		{[]byte{1, 200, 0, 3, 2, 220, 1, 7}, 33},
		{[]byte{3, 8, 4, 15, 1, 8, 4, 15}, 90},
		{[]byte{2, 63, 8, 31, 1, 63, 8, 31}, 255},
		{[]byte{1, 5, 0, 0}, 1},
	}
	for i, s := range seeds {
		for _, heat := range []bool{false, true} {
			launchVsReference(t, fmt.Sprintf("seed %d", i), fuzzKernel(s.data, s.threads), heat)
		}
	}
	for _, s := range warpSeeds {
		k := fuzzKernel(s.data, int(s.nthreads)%128+1)
		if !s.shape(k) {
			t.Fatalf("%s: the kernel lost the lane shapes the case needs", s.name)
		}
		_, batch := twinGPUs()
		_, err := batch.Launch(k)
		if (err != nil) != s.invalid {
			t.Fatalf("%s: Launch error %v, want an error: %v", s.name, err, s.invalid)
		}
		for _, heat := range []bool{false, true} {
			launchVsReference(t, s.name, k, heat)
		}
	}
}

// lanesOf emits thread tid's program runs.
func lanesOf(k Kernel, tid int) []isa.Run {
	var p isa.Program
	k.Program(tid, &p)
	return p.Runs()
}

// warpSeeds are fuzz inputs that pin the compiler's warp-at-a-time walk: 128
// threads on two SMs put warps 0 and 2 in one resident batch, and warp 2 is
// compiled after warp 0's memory events were captured. shape checks that
// warp 0 walks in lockstep and warp 2 has the lane shapes the case needs.
var warpSeeds = []struct {
	name     string
	data     []byte
	nthreads uint8 // fuzz encoding: threads = nthreads%128 + 1
	invalid  bool
	shape    func(k Kernel) bool
}{
	{
		// Two masked slots in a row only past warp 0: warp 2's odd lanes
		// hold one two-slot Nop run where even lanes hold two loads, so
		// the warp converges but does not walk in lockstep.
		name: "later warp converges out of lockstep",
		data: []byte{1, 0, 8, 3, 0xF3, 8, 4, 15, 0xF3, 9, 4, 15, 0, 0, 2, 0, 1, 2, 8, 7}, nthreads: 127,
		shape: func(k Kernel) bool {
			return sameShape(lanesOf(k, 0), lanesOf(k, 1)) &&
				len(lanesOf(k, 64)) != len(lanesOf(k, 65))
		},
	},
	{
		// A load slot that odd lanes past warp 0 store instead: warp 2's
		// lanes share lane 0's run shape but not its ops.
		name: "later warp has lockstep shape but conflicting ops", invalid: true,
		data: []byte{1, 0, 8, 3, 0, 0, 2, 0, 0xF1, 0, 8, 3}, nthreads: 127,
		shape: func(k Kernel) bool {
			a, b := lanesOf(k, 64), lanesOf(k, 65)
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i].Count != b[i].Count {
					return false
				}
			}
			return sameShape(lanesOf(k, 0), lanesOf(k, 1)) && !sameShape(a, b)
		},
	},
}

// boundarySeeds are fuzz inputs whose compiled streams reach the replay's
// partition boundaries; shape checks that they still do.
var boundarySeeds = []struct {
	name     string
	data     []byte
	nthreads uint8 // fuzz encoding: threads = nthreads%128 + 1
	shape    func(ck *CompiledKernel) bool
}{
	{
		// 128 threads of 96 unit-stride loads: each SM issues 6144 cached
		// line reads, one attribute run that outgrows a replay chunk and
		// continues across SM 0's stream end.
		name: "long same-path run across chunk and SM ends", data: bytes.Repeat([]byte{1, 0, 8, 3}, 96), nthreads: 127,
		shape: func(ck *CompiledKernel) bool {
			return len(ck.runs) == 1 && ck.smTxnEnd[0] > replayChunk && ck.smTxnEnd[0] < ck.runs[0].end
		},
	},
	{
		// One warp per SM alternating a write-combined pinned store and a
		// broadcast cached load: every run is one transaction long.
		name: "alternating length-1 pinned/cached runs", data: bytes.Repeat([]byte{2, 200, 0, 3, 1, 0, 0, 3}, 24), nthreads: 63,
		shape: func(ck *CompiledKernel) bool {
			for i := 1; i < len(ck.runs); i++ {
				if ck.runs[i].path == ck.runs[i-1].path {
					return false
				}
			}
			return len(ck.runs) == len(ck.addrs) && len(ck.runs) > 2
		},
	},
}

// TestReplayBoundariesVsReference replays the boundary seeds cold and warm,
// with heat profiling off and on, and requires the reference executor's
// exact results and heat records: splitting a same-path stretch into
// chunks, clipping a run at an SM's stream end and switching paths every
// transaction must all be invisible.
func TestReplayBoundariesVsReference(t *testing.T) {
	for _, s := range boundarySeeds {
		k := fuzzKernel(s.data, int(s.nthreads)%128+1)
		_, batch := twinGPUs()
		ck, err := batch.Compile(k)
		if err != nil {
			t.Fatal(err)
		}
		if !s.shape(ck) {
			t.Fatalf("%s: compiled stream (%d transactions, %d runs, SM ends %v) lost the shape the case needs",
				s.name, len(ck.addrs), len(ck.runs), ck.smTxnEnd)
		}
		for _, heat := range []bool{false, true} {
			launchVsReference(t, s.name, k, heat)
		}
	}
}

// TestCompileHoldsOneWarpOfLaneScratch pins the compiler's memory
// footprint: a kernel with more warps than the GPU holds resident at once
// compiles through one warp of lane programs, leaving the reference
// executor's batch-sized buffers unallocated, and still matches the
// reference executor.
func TestCompileHoldsOneWarpOfLaneScratch(t *testing.T) {
	ref, batch := twinGPUs()
	ws := batch.cfg.WarpSize
	threads := (len(batch.sms)*batch.resident() + 3) * ws
	k := Kernel{Name: "wide", Threads: threads, Program: func(tid int, p *isa.Program) {
		p.Compute(isa.FMA, 2)
		p.Ld(int64(tid)*8, 8)
		if tid%3 == 0 {
			p.PadTo(p.Len() + 1)
		} else {
			p.St(pinnedBase+int64(tid%1024)*8, 8)
		}
	}}
	if _, err := batch.Compile(k); err != nil {
		t.Fatal(err)
	}
	if len(batch.laneProgs) != ws || batch.refProgs != nil {
		t.Fatalf("compile lane scratch: %d programs (reference buffers %d), want %d and none",
			len(batch.laneProgs), len(batch.refProgs), ws)
	}
	want, err := ref.Launch(k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := batch.Launch(k)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("result divergence:\nreference: %+v\nbatch:     %+v", want, got)
	}
	if len(batch.laneProgs) != ws {
		t.Fatalf("compile lane scratch grew to %d programs after Launch, want %d", len(batch.laneProgs), ws)
	}
}

// TestNonIntegralCostsFallBackIdentically pins the escape hatch: a cost
// model with fractional cycles disables compiled replay (bulk-charging would
// reorder float additions), and Launch must transparently produce the
// reference executor's exact result.
func TestNonIntegralCostsFallBackIdentically(t *testing.T) {
	cfg := testConfig()
	cfg.Costs.Issue[isa.FMA] = 1.5
	d := memdev.New(memdev.Config{Name: "dram", Latency: 200, Bandwidth: 25 * units.GBps})
	g := New(cfg, d.NewPort("gpu-dram", -1))
	if g.intCosts {
		t.Fatal("fractional cost model classified integral")
	}
	k := Kernel{Name: "frac", Threads: 64, Program: func(tid int, p *isa.Program) {
		p.Compute(isa.FMA, 3)
		p.Ld(int64(tid)*64, 8)
	}}
	got, err := g.Launch(k)
	if err != nil {
		t.Fatal(err)
	}
	d2 := memdev.New(memdev.Config{Name: "dram", Latency: 200, Bandwidth: 25 * units.GBps})
	g2 := New(cfg, d2.NewPort("gpu-dram", -1))
	want, err := g2.LaunchReference(k)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("fallback divergence:\nreference: %+v\nlaunch:    %+v", want, got)
	}
	if _, err := g.Compile(k); err == nil {
		t.Fatal("Compile accepted a non-integral cost model")
	}
}

// TestLaunchSteadyStateZeroAlloc is the allocation gate on the simulate hot
// path: once warm, a compiled Launch — emission, compile walk, coalescing,
// batch cache replay — must not allocate at all.
func TestLaunchSteadyStateZeroAlloc(t *testing.T) {
	_, g := twinGPUs()
	k := fuzzKernel([]byte{1, 0, 1, 3, 0, 0, 0, 0, 2, 10, 2, 7, 1, 200, 0, 3}, 128)
	for i := 0; i < 3; i++ { // warm scratch to steady-state capacity
		if _, err := g.Launch(k); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := g.Launch(k); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Launch allocates %v times per run, want 0", allocs)
	}
}

// TestLauncherSteadyStateZeroAlloc extends the gate to the cached-replay
// path model runs actually use: a warm Launcher.Launch validates the cache
// entry and replays without allocating.
func TestLauncherSteadyStateZeroAlloc(t *testing.T) {
	_, g := twinGPUs()
	lch := NewLauncher(g, "alloc-test/fuzz")
	k := fuzzKernel([]byte{1, 0, 1, 3, 2, 10, 2, 7}, 128)
	for i := 0; i < 3; i++ {
		if _, err := lch.Launch(0, k); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := lch.Launch(0, k); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Launcher.Launch allocates %v times per run, want 0", allocs)
	}
}

// TestLauncherCrossRunReplay pins the cross-run reuse protocol: after a
// pinned-routing reset that rebuilds identical content (what soc.ResetState
// does between model runs), the second compile of a key records the program
// fingerprint, and from the third run on the launcher replays — validated by
// hash — instead of recompiling.
func TestLauncherCrossRunReplay(t *testing.T) {
	_, g := twinGPUs()
	lch := NewLauncher(g, "xrun/fuzz")
	k := fuzzKernel([]byte{1, 0, 1, 3, 2, 10, 2, 7}, 64)

	newRun := func() {
		// Rebuild the same pinned routing; the epoch moves, content doesn't.
		g.ClearPinnedRanges()
		g.AddPinnedRange(pinnedBase, pinnedBase+8192)
	}
	want, err := lch.Launch(0, k)
	if err != nil {
		t.Fatal(err)
	}
	e := g.kcache[kernelKey{scope: "xrun/fuzz", idx: 0}]
	if e == nil {
		t.Fatal("no cache entry after first launch")
	}
	if e.hashed {
		t.Fatal("first compile hashed eagerly; hashing must be deferred to reuse")
	}
	newRun()
	if _, err := lch.Launch(0, k); err != nil {
		t.Fatal(err)
	}
	if !e.hashed {
		t.Fatal("second compile did not record the program fingerprint")
	}
	epochAfterSecond := e.ck.epoch
	newRun()
	got, err := lch.Launch(0, k)
	if err != nil {
		t.Fatal(err)
	}
	if e.ck.epoch == epochAfterSecond {
		t.Fatal("third launch did not revalidate against the new epoch")
	}
	if got.Transactions != want.Transactions || got.Instructions != want.Instructions {
		t.Fatalf("cross-run replay diverged: %+v vs %+v", got, want)
	}

	// A changed pinned layout must force recompilation, not replay.
	g.ClearPinnedRanges()
	g.AddPinnedRange(pinnedBase, pinnedBase+4096)
	if _, err := lch.Launch(0, k); err != nil {
		t.Fatal(err)
	}
	if e.path == nil {
		t.Fatal("entry lost its routing evidence after recompile")
	}
	if got := len(e.ranges); got != 1 || e.ranges[0].hi != pinnedBase+4096 {
		t.Fatalf("entry not recompiled against new routing: ranges %+v", e.ranges)
	}
}

// TestLauncherBypassesMatchLaunch pins the launcher's bypass rules: negative
// launch indices and reference mode take the uncached paths with identical
// results.
func TestLauncherBypassesMatchLaunch(t *testing.T) {
	ref, g := twinGPUs()
	k := fuzzKernel([]byte{1, 0, 1, 3}, 64)
	lch := NewLauncher(g, "bypass/fuzz")
	want, err := ref.Launch(k) // reference path
	if err != nil {
		t.Fatal(err)
	}
	got, err := lch.Launch(-1, k)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("negative-index launch diverged from reference: %+v vs %+v", got, want)
	}
	g.SetReferenceMode(true)
	got, err = lch.Launch(0, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.kcache) != 0 {
		t.Fatal("reference mode populated the kernel cache")
	}
	g.SetReferenceMode(false)
	if got.Transactions != want.Transactions {
		t.Fatalf("reference-mode launcher diverged: %+v vs %+v", got, want)
	}
	if _, err := lch.Launch(0, Kernel{Name: "bad", Threads: 0, Program: func(int, *isa.Program) {}}); err == nil {
		t.Fatal("launcher accepted zero threads")
	}
	if _, err := lch.Launch(0, Kernel{Name: "nil", Threads: 4}); err == nil {
		t.Fatal("launcher accepted nil program")
	}
}

// TestKernelCacheEviction bounds the GPU-resident kernel cache: pushing many
// distinct large kernels through one GPU must evict oldest entries rather
// than grow past the byte budget.
func TestKernelCacheEviction(t *testing.T) {
	_, g := twinGPUs()
	// Large streaming kernels so each entry carries real transaction weight.
	mk := func(i int) Kernel {
		base := int64(i) * 4096
		return Kernel{Name: "big", Threads: 256, Program: func(tid int, p *isa.Program) {
			for j := 0; j < 64; j++ {
				p.Ld(base+int64(tid)*64+int64(j)*16384, 4)
			}
		}}
	}
	lch := NewLauncher(g, "evict/fuzz")
	for i := 0; i < 2000; i++ {
		if _, err := lch.Launch(i, mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if g.kcacheBytes > kernelCacheBudget {
		t.Fatalf("kernel cache %d bytes exceeds budget %d", g.kcacheBytes, kernelCacheBudget)
	}
	if len(g.kcache) >= 2000 {
		t.Fatalf("no eviction happened: %d entries resident", len(g.kcache))
	}
	if len(g.kcache) != len(g.kcacheOrder) {
		t.Fatalf("cache map (%d) and order list (%d) out of sync", len(g.kcache), len(g.kcacheOrder))
	}
}

// TestKernelCacheHoldsCompactWorkingSet pins what the compact stream buys: a
// working set that fits the budget at about 8 B per transaction, but not at
// the 25 B of a cache.Access plus a path byte, stays resident across runs.
// From the third run on every launch is a fingerprint-validated replay —
// nothing compiles, nothing is evicted — and bytes() tracks the storage the
// entries actually retain, so the budget means what it says.
func TestKernelCacheHoldsCompactWorkingSet(t *testing.T) {
	_, g := twinGPUs()
	const kernels, threads, loads = 12, 4096, 64
	mk := func(i int) Kernel {
		base := int64(i) << 24
		return Kernel{Name: "stream", Threads: threads, Program: func(tid int, p *isa.Program) {
			for j := 0; j < loads; j++ {
				p.Ld(base+int64(j*threads+tid)*64, 4) // one line per lane
			}
		}}
	}
	newRun := func() { // what soc.ResetState does: same routing, new epoch
		g.ClearPinnedRanges()
		g.AddPinnedRange(pinnedBase, pinnedBase+8192)
	}
	lch := NewLauncher(g, "resident/stream")
	resident := make(map[kernelKey]*cachedKernel)
	for run := 0; run < 4; run++ {
		if run > 0 {
			newRun()
		}
		for i := 0; i < kernels; i++ {
			if _, err := lch.Launch(i, mk(i)); err != nil {
				t.Fatal(err)
			}
		}
		switch run {
		case 0:
			var txns int64
			for _, e := range g.kcache {
				txns += e.ck.Transactions()
			}
			if txns*25 <= kernelCacheBudget {
				t.Fatalf("%d transactions fit the budget even at 25 B each; the case proves nothing", txns)
			}
		case 1:
			// A compile rewrites the entry's name; a replay never does.
			for key, e := range g.kcache {
				e.ck.name = "replayed"
				resident[key] = e
			}
		default:
			if len(g.kcache) != kernels || len(resident) != kernels {
				t.Fatalf("run %d: %d entries resident (%d after run 1), want %d", run, len(g.kcache), len(resident), kernels)
			}
			for key, e := range resident {
				if g.kcache[key] != e {
					t.Fatalf("run %d: entry %v was evicted", run, key)
				}
				if e.ck.name != "replayed" {
					t.Fatalf("run %d: entry %v was recompiled", run, key)
				}
			}
		}
	}

	// A failed compile leaves an entry behind; it must stay counted.
	diverge := Kernel{Name: "diverge", Threads: 64, Program: func(tid int, p *isa.Program) {
		if tid%2 == 0 {
			p.Ld(int64(tid)*64, 4)
		} else {
			p.Compute(isa.FMA, 1)
		}
	}}
	if _, err := lch.Launch(kernels, diverge); err == nil {
		t.Fatal("divergent kernel compiled")
	}

	var sum int64
	for key, e := range g.kcache {
		ck := &e.ck
		actual := int64(cap(ck.addrs))*int64(unsafe.Sizeof(ck.addrs[0])) +
			int64(cap(ck.runs))*int64(unsafe.Sizeof(ck.runs[0])) +
			int64(cap(ck.smCompute))*int64(unsafe.Sizeof(ck.smCompute[0])) +
			int64(cap(ck.smWarps))*int64(unsafe.Sizeof(ck.smWarps[0])) +
			int64(cap(ck.smTxnEnd))*int64(unsafe.Sizeof(ck.smTxnEnd[0])) +
			int64(cap(e.ranges))*int64(unsafe.Sizeof(addrRange{})) +
			int64(unsafe.Sizeof(*e))
		if b := e.bytes(); b < actual || b > actual+512 {
			t.Errorf("entry %v: bytes() = %d, retained storage %d", key, b, actual)
		}
		sum += e.bytes()
	}
	if sum != g.kcacheBytes || sum > kernelCacheBudget {
		t.Fatalf("cache accounts %d bytes, entries hold %d, budget %d", g.kcacheBytes, sum, kernelCacheBudget)
	}
}
