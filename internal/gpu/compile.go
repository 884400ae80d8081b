package gpu

import (
	"fmt"

	"igpucomm/internal/cache"
	"igpucomm/internal/isa"
	"igpucomm/internal/units"
)

// This file is the batch-kernel core: a one-time "trace → access-run"
// compile pass plus a replay executor.
//
// Compile walks the kernel exactly the way the reference executor does —
// SMs outer, resident batches, slot-major interleave across a batch's warps
// — but instead of pushing each coalesced transaction through the cache
// hierarchy it records the whole transaction stream into a flat
// struct-of-arrays CompiledKernel. Everything that does not depend on cache
// state is resolved at compile time: SIMT validation, coalescing, the
// per-SM warp counts, issue-cycle totals, instruction and requested-byte
// counts. What remains per launch — the only state-dependent part — is
// driving the recorded transactions through the caches, which LaunchCompiled
// does with the batch cache kernels (cache.DoBatch) instead of per-access
// interface calls.
//
// Byte-identity argument, load-bearing for the differential suite:
//
//   - The transaction stream depends only on the emitted programs and the
//     pinned ranges, never on cache contents, so recording it once and
//     replaying is exact. Pinned routing is guarded by a generation counter
//     (GPU.PinnedEpoch); a stale CompiledKernel refuses to replay.
//   - Issue-cycle totals are float sums, but every in-tree cost model is
//     integral (whole cycles), so bulk-charging a run of n identical ops as
//     cost*n equals the reference's n sequential additions bit-for-bit
//     (integer-valued partial sums are exact). Non-integral models make
//     Launch fall back to the reference executor instead.
//   - Per-SM memory latency is summed per transaction in the original
//     global order, reading the batch kernels' per-access results, so the
//     float addition sequence matches the reference exactly — including the
//     fractional latencies some device catalogs use.
//   - Transactions on the cached path and the pinned path share no mutable
//     state below except DRAM's integer counters, so servicing consecutive
//     same-path groups together preserves every observable.
type CompiledKernel struct {
	name      string
	warpCount int

	instructions   int64
	bytesRequested int64
	txnBytes       int64

	smCompute []units.Cycles
	smWarps   []int
	smTxnEnd  []int32 // exclusive end index into addrs, per SM

	// The transaction stream: one address per transaction, plus the
	// attributes (path, kind, size) as runs over maximal stretches of
	// consecutive transactions that share them. The attributes change
	// rarely — a coalesced stream is long stretches of same-size cached
	// lines or same-size pinned lanes — so the stream costs 8 bytes per
	// transaction instead of a 24-byte cache.Access and a path byte, which
	// is what lets a paper-scale working set stay in the kernel cache.
	addrs []int64
	runs  []txnRun

	// progH1/progH2 fingerprint the emitted programs: the sum of every
	// lane's digest (laneDigest), accumulated during compile emission when
	// GPU.hashCompile is set (the kernel cache requests it for keys that
	// show cross-run reuse). The sum is order-independent, so it equals
	// hashPrograms' tid-major walk even though compile emits in SM-strided
	// batch order.
	progH1, progH2 uint64

	epoch uint64
	valid bool
}

// txnRun gives the attributes shared by the transactions from the previous
// run's end up to end (exclusive, an index into addrs).
type txnRun struct {
	end  int32
	path uint8
	kind cache.Kind
	size int64
}

const (
	pathCached uint8 = iota // through the issuing SM's L1
	pathPinned              // down the pinned (zero-copy) path
)

// replayChunk is how many transactions LaunchCompiled expands into
// cache.Access records per batch-kernel call: enough to amortize the call,
// while the two replay buffers it sizes stay at 96 KiB each.
const replayChunk = 4096

// Epoch is the pinned-routing generation this kernel was compiled under; it
// must match GPU.PinnedEpoch for LaunchCompiled to accept the kernel.
func (ck *CompiledKernel) Epoch() uint64 { return ck.epoch }

// Name returns the source kernel's name.
func (ck *CompiledKernel) Name() string { return ck.name }

// Transactions returns the size of the compiled transaction stream.
func (ck *CompiledKernel) Transactions() int64 { return int64(len(ck.addrs)) }

func (ck *CompiledKernel) reset(k Kernel, warpCount, sms int, epoch uint64) {
	ck.name = k.Name
	ck.warpCount = warpCount
	ck.instructions = 0
	ck.bytesRequested = 0
	ck.txnBytes = 0
	if cap(ck.smCompute) < sms {
		ck.smCompute = make([]units.Cycles, sms)
		ck.smWarps = make([]int, sms)
		ck.smTxnEnd = make([]int32, sms)
	}
	ck.smCompute = ck.smCompute[:sms]
	ck.smWarps = ck.smWarps[:sms]
	ck.smTxnEnd = ck.smTxnEnd[:sms]
	for i := 0; i < sms; i++ {
		ck.smCompute[i] = 0
		ck.smWarps[i] = 0
		ck.smTxnEnd[i] = 0
	}
	ck.addrs = ck.addrs[:0]
	ck.runs = ck.runs[:0]
	ck.progH1 = 0
	ck.progH2 = 0
	ck.epoch = epoch
	ck.valid = false
}

// appendTxn appends one transaction, extending the last attribute run when
// the attributes match it.
func (ck *CompiledKernel) appendTxn(path uint8, kind cache.Kind, addr, size int64) {
	ck.addrs = append(ck.addrs, addr)
	ck.txnBytes += size
	end := int32(len(ck.addrs))
	if n := len(ck.runs); n > 0 {
		if r := &ck.runs[n-1]; r.path == path && r.kind == kind && r.size == size {
			r.end = end
			return
		}
	}
	ck.runs = append(ck.runs, txnRun{end: end, path: path, kind: kind, size: size})
}

// laneCursor walks one lane's run-length-encoded program.
type laneCursor struct {
	runs []isa.Run
	idx  int
	off  int32
}

// memEvent is one memory warp-instruction discovered during the per-warp
// walk: its slot index and the captured per-lane instructions.
type memEvent struct {
	slot      int32
	laneStart int32
	laneCount int32
	op        isa.Op
}

// compiler is the reusable compile-pass scratch. Everything grows once and
// is sliced back to zero per batch, so steady-state compilation allocates
// only the CompiledKernel's own (also reused) arrays.
type compiler struct {
	warps    []int
	cur      []laneCursor
	laneRuns [][]isa.Run
	events   []memEvent
	evLanes  []isa.Instr
	evStart  []int32
	evEnd    []int32
	evCur    []int32
	lineBuf  []int64
	wcBuf    []int64
}

func (c *compiler) ensure(ws, resident int) {
	if cap(c.cur) < ws {
		c.cur = make([]laneCursor, ws)
	}
	if cap(c.laneRuns) < ws {
		c.laneRuns = make([][]isa.Run, ws)
	}
	if cap(c.evStart) < resident {
		c.evStart = make([]int32, resident)
		c.evEnd = make([]int32, resident)
		c.evCur = make([]int32, resident)
	}
	if cap(c.lineBuf) < 2*ws {
		c.lineBuf = make([]int64, 0, 2*ws)
	}
	if cap(c.wcBuf) < ws {
		c.wcBuf = make([]int64, 0, ws)
	}
}

// Compile builds a fresh compiled form of the kernel (see CompileInto).
// Model runners cache the result and replay it across iterations.
func (g *GPU) Compile(k Kernel) (*CompiledKernel, error) {
	ck := &CompiledKernel{}
	if err := g.CompileInto(k, ck); err != nil {
		return nil, err
	}
	return ck, nil
}

// CompileInto compiles the kernel into ck, reusing its storage. It performs
// every validation Launch performs (thread count, program validity, SIMT
// convergence) and reports the same errors; unlike the reference executor it
// does so before any cache state is touched.
func (g *GPU) CompileInto(k Kernel, ck *CompiledKernel) error {
	if !g.intCosts {
		return fmt.Errorf("gpu %s: kernel %s: cost model has non-integral cycles; compiled replay unavailable", g.cfg.Name, k.Name)
	}
	if k.Threads <= 0 {
		return fmt.Errorf("kernel %s: thread count %d must be positive", k.Name, k.Threads)
	}
	if k.Program == nil {
		return fmt.Errorf("kernel %s: nil program", k.Name)
	}
	ws := g.cfg.WarpSize
	warpCount := (k.Threads + ws - 1) / ws
	resident := g.resident()
	g.comp.ensure(ws, resident)
	ck.reset(k, warpCount, len(g.sms), g.pinnedEpoch)

	c := &g.comp
	for smIdx := range g.sms {
		for start := smIdx; start < warpCount; start += len(g.sms) * resident {
			c.warps = c.warps[:0]
			for w := start; w < warpCount && len(c.warps) < resident; w += len(g.sms) {
				c.warps = append(c.warps, w)
			}
			if err := g.compileBatch(k, smIdx, ck); err != nil {
				return err
			}
		}
		ck.smTxnEnd[smIdx] = int32(len(ck.addrs))
	}
	ck.valid = true
	return nil
}

// compileBatch compiles one resident batch a warp at a time: emit the
// warp's lanes, validate lane 0, check convergence, then walk its runs right
// away — charging compute in bulk per run segment and capturing its memory
// events — so one warp of lane programs is all the scratch compilation
// holds. Errors surface in the reference executor's order (warps in batch
// order, emission before validation before convergence), and the walk
// cannot fail. The batch's memory transactions are then emitted in the
// reference executor's slot-major interleaved order.
func (g *GPU) compileBatch(k Kernel, smIdx int, ck *CompiledKernel) error {
	c := &g.comp
	ws := g.cfg.WarpSize
	c.events = c.events[:0]
	c.evLanes = c.evLanes[:0]
	maxLen := 0
	for bi, w := range c.warps {
		lanes := min(ws, k.Threads-w*ws)
		progs := g.laneProgs[:lanes]
		laneRuns := c.laneRuns[:lanes]
		for l := range progs {
			p := &progs[l]
			p.Reset()
			k.Program(w*ws+l, p)
			laneRuns[l] = p.Runs()
			if g.hashCompile {
				d1, d2 := laneDigest(w*ws+l, laneRuns[l])
				ck.progH1 += d1
				ck.progH2 += d2
			}
		}
		idx := 0
		for _, r := range laneRuns[0] {
			if err := r.In.Validate(); err != nil {
				return fmt.Errorf("kernel %s: warp %d lane 0 instr %d: %w", k.Name, w, idx, err)
			}
			idx += int(r.Count)
		}
		// One pass per lane decides convergence and lockstep together: a
		// lane with lane 0's shape converges and shares its run boundaries.
		// Only the rest pay for the slot-by-slot convergence check.
		lockstep := true
		for l := 1; l < lanes; l++ {
			if sameShape(laneRuns[0], laneRuns[l]) {
				continue
			}
			lockstep = false
			if progs[l].Len() != progs[0].Len() {
				return fmt.Errorf("kernel %s: warp %d diverges: lane 0 has %d instrs, lane %d has %d",
					k.Name, w, progs[0].Len(), l, progs[l].Len())
			}
			if slot, opA, opB, ok := firstOpMismatch(laneRuns[0], laneRuns[l]); !ok {
				return fmt.Errorf("kernel %s: warp %d instr %d diverges: lane 0 %s vs lane %d %s",
					k.Name, w, slot, opA, l, opB)
			}
		}
		ck.smWarps[smIdx]++

		total := progs[0].Len()
		maxLen = max(maxLen, total)
		c.evStart[bi] = int32(len(c.events))
		if lockstep {
			g.walkLockstep(ck, smIdx, laneRuns)
		} else {
			g.walkSegments(ck, smIdx, laneRuns, total)
		}
		c.evEnd[bi] = int32(len(c.events))
	}

	// Emit transactions slot-major across the batch's warps — the warp
	// scheduler's interleave, which fixes the global transaction order the
	// replay preserves.
	copy(c.evCur[:len(c.warps)], c.evStart[:len(c.warps)])
	for i := 0; i < maxLen; i++ {
		for bi := range c.warps {
			if c.evCur[bi] < c.evEnd[bi] && c.events[c.evCur[bi]].slot == int32(i) {
				g.emitTxns(ck, &c.events[c.evCur[bi]])
				c.evCur[bi]++
			}
		}
	}
	return nil
}

// walkLockstep walks a warp whose lanes share lane 0's run boundaries (the
// common case — masked lanes with wider Nop runs are the exception) one
// whole run at a time, with no per-lane cursors. Its segment decomposition,
// and with it every charged and captured quantity, is walkSegments'.
func (g *GPU) walkLockstep(ck *CompiledKernel, smIdx int, laneRuns [][]isa.Run) {
	c := &g.comp
	lanes := len(laneRuns)
	slot := 0
	for ri, r0 := range laneRuns[0] {
		step := int(r0.Count)
		eff := r0.In.Op
		if eff == isa.Nop {
			for l := 1; l < lanes; l++ {
				if op := laneRuns[l][ri].In.Op; op != isa.Nop {
					eff = op
					break
				}
			}
		}
		ck.instructions += int64(lanes) * int64(step)
		ck.smCompute[smIdx] += g.costs.Cost(eff) * units.Cycles(step)
		if eff.IsMemory() {
			// A memory run has Count 1, so step is 1 here.
			ev := memEvent{slot: int32(slot), laneStart: int32(len(c.evLanes)), laneCount: int32(lanes), op: eff}
			for l := 0; l < lanes; l++ {
				c.evLanes = append(c.evLanes, laneRuns[l][ri].In)
			}
			c.events = append(c.events, ev)
		}
		slot += step
	}
}

// walkSegments walks a converged warp of total slots in segments bounded by
// every lane's run boundaries, so each lane's opcode — and therefore the
// slot's effective opcode — is constant within a segment.
func (g *GPU) walkSegments(ck *CompiledKernel, smIdx int, laneRuns [][]isa.Run, total int) {
	c := &g.comp
	lanes := len(laneRuns)
	cur := c.cur[:lanes]
	for l := range cur {
		cur[l] = laneCursor{runs: laneRuns[l]}
	}
	slot := 0
	for slot < total {
		step := total - slot
		eff := isa.Nop
		for l := range cur {
			r := &cur[l].runs[cur[l].idx]
			if rem := int(r.Count - cur[l].off); rem < step {
				step = rem
			}
			if eff == isa.Nop && r.In.Op != isa.Nop {
				eff = r.In.Op
			}
		}
		ck.instructions += int64(lanes) * int64(step)
		ck.smCompute[smIdx] += g.costs.Cost(eff) * units.Cycles(step)
		if eff.IsMemory() {
			// A memory run has Count 1, so step is 1 here.
			ev := memEvent{slot: int32(slot), laneStart: int32(len(c.evLanes)), laneCount: int32(lanes), op: eff}
			for l := range cur {
				c.evLanes = append(c.evLanes, cur[l].runs[cur[l].idx].In)
			}
			c.events = append(c.events, ev)
		}
		for l := range cur {
			cur[l].off += int32(step)
			if cur[l].off == cur[l].runs[cur[l].idx].Count {
				cur[l].idx++
				cur[l].off = 0
			}
		}
		slot += step
	}
}

// emitTxns coalesces one memory warp-instruction into transactions, exactly
// as the reference executor does: pinned reads lane-by-lane uncoalesced,
// pinned writes merged through the 64B write-combining buffer, cacheable
// lanes deduplicated to distinct lines.
func (g *GPU) emitTxns(ck *CompiledKernel, ev *memEvent) {
	c := &g.comp
	kind := cache.Read
	if ev.op == isa.StGlobal {
		kind = cache.Write
	}
	lineSize := g.cfg.L1.LineSize
	c.lineBuf = c.lineBuf[:0]
	c.wcBuf = c.wcBuf[:0]
	var wcBytes int64
	for _, la := range c.evLanes[ev.laneStart : ev.laneStart+ev.laneCount] {
		if la.Op == isa.Nop {
			continue
		}
		ck.bytesRequested += la.Size
		if g.pinned(la.Addr) {
			if kind == cache.Write {
				wcLine := la.Addr >> 6 // 64B write-combining lines
				if !containsInt64(c.wcBuf, wcLine) {
					c.wcBuf = append(c.wcBuf, wcLine)
					wcBytes += la.Size
				}
				continue
			}
			ck.appendTxn(pathPinned, kind, la.Addr, la.Size)
			continue
		}
		first := la.Addr >> g.lineShift
		last := (la.Addr + la.Size - 1) >> g.lineShift
		for ln := first; ln <= last; ln++ {
			if !containsInt64(c.lineBuf, ln) {
				c.lineBuf = append(c.lineBuf, ln)
			}
		}
	}
	for _, wcLine := range c.wcBuf {
		size := wcBytes / int64(len(c.wcBuf))
		if size <= 0 {
			size = 4
		}
		ck.appendTxn(pathPinned, cache.Write, wcLine*64, size)
	}
	for _, ln := range c.lineBuf {
		ck.appendTxn(pathCached, kind, ln*lineSize, lineSize)
	}
}

// sameShape reports whether lane b has lane a's run structure — the same run
// count and every run the same length — with each run's op equal to a's or
// masked off by a Nop on either side. Passing proves both that b converges
// with a and that the two walk in lockstep.
func sameShape(a, b []isa.Run) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Count != b[i].Count {
			return false
		}
		if opA, opB := a[i].In.Op, b[i].In.Op; opA != opB && opA != isa.Nop && opB != isa.Nop {
			return false
		}
	}
	return true
}

// firstOpMismatch scans two run-length-encoded lanes for the first slot
// whose opcodes differ with neither masked off by a Nop. ok is true when the
// lanes converge. Lengths must already be equal.
func firstOpMismatch(a, b []isa.Run) (slot int, opA, opB isa.Op, ok bool) {
	ai, bi := 0, 0
	var ao, bo int32
	at := 0
	for ai < len(a) && bi < len(b) {
		ra, rb := a[ai], b[bi]
		if ra.In.Op != rb.In.Op && ra.In.Op != isa.Nop && rb.In.Op != isa.Nop {
			return at, ra.In.Op, rb.In.Op, false
		}
		step := ra.Count - ao
		if s := rb.Count - bo; s < step {
			step = s
		}
		ao += step
		bo += step
		at += int(step)
		if ao == ra.Count {
			ai++
			ao = 0
		}
		if bo == rb.Count {
			bi++
			bo = 0
		}
	}
	return 0, 0, 0, true
}

// replayScratch holds the replay executor's reusable buffers: a fixed-size
// chunk of expanded accesses and their results.
type replayScratch struct {
	accs  []cache.Access
	outs  []cache.Result
	batch cache.Batch
}

// LaunchCompiled replays a compiled kernel: it restores the per-SM compile-
// time accumulators, drives the recorded transaction stream through the
// batch cache kernels in original order, and applies the shared interval-
// model tail. The result is byte-identical to LaunchReference of the source
// kernel. It is an error to replay a kernel compiled under different pinned
// routing (see PinnedEpoch) or one whose compile failed.
//
// The stream is expanded into cache.Access records a chunk at a time; a
// chunk holds consecutive same-path transactions of one SM. Splitting a
// same-path group into chunks is exact, because DoBatch is byte-identical
// to Do per access in order.
func (g *GPU) LaunchCompiled(ck *CompiledKernel) (Result, error) {
	if !ck.valid {
		return Result{}, fmt.Errorf("gpu %s: compiled kernel %s is not valid", g.cfg.Name, ck.name)
	}
	if ck.epoch != g.pinnedEpoch {
		return Result{}, fmt.Errorf("gpu %s: compiled kernel %s is stale: pinned routing changed since compile", g.cfg.Name, ck.name)
	}
	before := g.snapStats()
	var res Result
	res.Warps = ck.warpCount
	res.Instructions = ck.instructions
	res.Transactions = int64(len(ck.addrs))
	res.TransactionBytes = ck.txnBytes
	res.BytesRequested = ck.bytesRequested

	rs := &g.replay
	if rs.accs == nil {
		rs.accs = make([]cache.Access, replayChunk)
		rs.outs = make([]cache.Result, replayChunk)
	}
	t, ri := int32(0), 0
	for si, s := range g.sms {
		s.computeCycles = ck.smCompute[si]
		s.memLatency = 0
		s.warps = ck.smWarps[si]
		end := ck.smTxnEnd[si]
		n := 0
		var path uint8
		for t < end {
			for ck.runs[ri].end <= t {
				ri++
			}
			r := &ck.runs[ri]
			if n > 0 && (r.path != path || n == replayChunk) {
				g.replayGroup(s, path, n)
				n = 0
			}
			path = r.path
			stop := min(r.end, end, t+int32(replayChunk-n))
			for ; t < stop; t++ {
				rs.accs[n] = cache.Access{Addr: ck.addrs[t], Size: r.size, Kind: r.kind}
				n++
			}
		}
		if n > 0 {
			g.replayGroup(s, path, n)
		}
	}

	g.finishResult(&res, before, ck.warpCount, g.resident())
	return res, nil
}

// replayGroup services the first n expanded accesses of the replay chunk —
// consecutive same-path transactions — through the batch cache kernels and
// accumulates their latencies into the SM in transaction order.
func (g *GPU) replayGroup(s *sm, path uint8, n int) {
	rs := &g.replay
	accs := rs.accs[:n]
	outs := rs.outs[:n]
	if g.heat != nil && path == pathPinned {
		// Pinned transactions bypass the caches, so the replay records them
		// directly — in stream order, the same order the reference executor
		// records at issue, keeping heat under the byte-identity contract.
		for j := range accs {
			g.heat.Record(accs[j].Addr, accs[j].Size, accs[j].Kind == cache.Write, true)
		}
	}
	switch {
	case path == pathCached:
		s.l1.DoBatch(accs, outs, &rs.batch)
	default:
		if bl, ok := g.pinnedPath.(cache.BatchLevel); ok {
			bl.DoBatch(accs, outs, &rs.batch)
		} else {
			for j := range accs {
				outs[j] = g.pinnedPath.Do(accs[j])
			}
		}
	}
	for j := range outs {
		s.memLatency += outs[j].Latency
	}
}
