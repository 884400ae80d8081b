package cache

// Differential testing of the cache against an executable reference model:
// an obviously-correct map+slice implementation of set-associative LRU. Every
// access of a generated sequence must classify identically (hit/miss) in
// both, and the final resident sets must match. The cache is the substrate's
// ground truth, so it gets the strongest check in the repository.

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"igpucomm/internal/units"
)

// refCache is the specification: per set, an LRU-ordered list of tags.
type refCache struct {
	lineSize int64
	sets     int64
	ways     int
	lru      map[int64][]int64 // set -> tags, most recent last
	dirty    map[int64]bool    // line address -> dirty
}

func newRefCache(size, lineSize int64, ways int) *refCache {
	return &refCache{
		lineSize: lineSize,
		sets:     size / (lineSize * int64(ways)),
		ways:     ways,
		lru:      make(map[int64][]int64),
		dirty:    make(map[int64]bool),
	}
}

// access classifies one line-sized access and updates the model; it returns
// whether it hit and, if an eviction happened, whether the victim was dirty.
func (r *refCache) access(addr int64, write bool) (hit bool, evictedDirty bool) {
	line := addr / r.lineSize
	set := line % r.sets
	tag := line / r.sets
	tags := r.lru[set]
	for i, tg := range tags {
		if tg == tag {
			// Move to MRU.
			tags = append(append(append([]int64{}, tags[:i]...), tags[i+1:]...), tag)
			r.lru[set] = tags
			if write {
				r.dirty[line] = true
			}
			return true, false
		}
	}
	// Miss: evict LRU if full.
	if len(tags) == r.ways {
		victim := tags[0]
		tags = tags[1:]
		victimLine := victim*r.sets + set
		evictedDirty = r.dirty[victimLine]
		delete(r.dirty, victimLine)
	}
	tags = append(tags, tag)
	r.lru[set] = tags
	if write {
		r.dirty[line] = true
	} else {
		delete(r.dirty, line)
	}
	return false, evictedDirty
}

func (r *refCache) resident() map[int64]bool {
	out := make(map[int64]bool)
	for set, tags := range r.lru {
		for _, tag := range tags {
			out[tag*r.sets+set] = true
		}
	}
	return out
}

// invalidate drops every line without writeback.
func (r *refCache) invalidate() {
	r.lru = make(map[int64][]int64)
	r.dirty = make(map[int64]bool)
}

// flush drops every resident line overlapping [lo, hi) and reports how many
// it dropped and how many of those were dirty.
func (r *refCache) flush(lo, hi int64) (dropped, dirty int) {
	for set, tags := range r.lru {
		kept := tags[:0:0]
		for _, tag := range tags {
			line := tag*r.sets + set
			if addr := line * r.lineSize; addr+r.lineSize <= lo || addr >= hi {
				kept = append(kept, tag)
				continue
			}
			dropped++
			if r.dirty[line] {
				dirty++
			}
			delete(r.dirty, line)
		}
		r.lru[set] = kept
	}
	return dropped, dirty
}

// scanResident counts current-generation lines by walking the whole array:
// the definition ResidentLines' running count must agree with.
func scanResident(c *Cache) int64 {
	var n int64
	for _, l := range c.sets {
		if l.gen == c.gen {
			n++
		}
	}
	return n
}

// countingSink tallies writebacks so the dirty-eviction behaviour can be
// compared too.
type countingSink struct{ writebacks int }

func (s *countingSink) Name() string { return "sink" }
func (s *countingSink) Do(a Access) Result {
	if a.Kind == Writeback {
		s.writebacks++
	}
	return Result{Latency: 1, ServedBy: "sink"}
}

func TestDifferentialAgainstReferenceModel(t *testing.T) {
	type geometry struct {
		size, line int64
		ways       int
	}
	geoms := []geometry{
		{1024, 64, 1},  // direct mapped
		{1024, 64, 4},  // typical
		{512, 32, 8},   // fully associative (2 sets... 512/32/8 = 2 sets)
		{2048, 128, 2}, // wide lines
	}
	f := func(ops []uint16, writes []bool, geoSel uint8) bool {
		geo := geoms[int(geoSel)%len(geoms)]
		sink := &countingSink{}
		real := New(Config{Name: "dut", Size: geo.size, LineSize: geo.line, Ways: geo.ways, HitLatency: 1}, sink)
		ref := newRefCache(geo.size, geo.line, geo.ways)
		refWritebacks := 0

		for i, op := range ops {
			// Line-aligned single-line accesses keep the comparison 1:1.
			addr := (int64(op) % 256) * geo.line
			write := i < len(writes) && writes[i]
			kind := Read
			if write {
				kind = Write
			}
			before := real.Stats().Hits()
			real.Do(Access{Addr: addr, Size: 4, Kind: kind})
			realHit := real.Stats().Hits() > before

			refHit, evictedDirty := ref.access(addr, write)
			if evictedDirty {
				refWritebacks++
			}
			if realHit != refHit {
				t.Logf("access %d addr %d write %v: real hit=%v ref hit=%v", i, addr, write, realHit, refHit)
				return false
			}
		}
		// Writeback counts agree (no flush happened, so sink counts demand
		// evictions only).
		if sink.writebacks != refWritebacks {
			t.Logf("writebacks: real %d ref %d", sink.writebacks, refWritebacks)
			return false
		}
		// Final resident sets agree.
		for line := range ref.resident() {
			if !real.Contains(line * geo.line) {
				t.Logf("line %d resident in ref but not in cache", line)
				return false
			}
		}
		if real.ResidentLines() != int64(len(ref.resident())) {
			t.Logf("resident count: real %d ref %d", real.ResidentLines(), len(ref.resident()))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestDifferentialLongSequence pushes one long deterministic mixed sequence
// through both models (quick.Check sequences are short; this exercises deep
// LRU churn).
func TestDifferentialLongSequence(t *testing.T) {
	sink := &countingSink{}
	real := New(Config{Name: "dut", Size: 4096, LineSize: 64, Ways: 4, HitLatency: 1}, sink)
	ref := newRefCache(4096, 64, 4)
	refWritebacks := 0

	state := uint64(0x12345678)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < 20000; i++ {
		addr := int64(next()%512) * 64
		write := next()%3 == 0
		kind := Read
		if write {
			kind = Write
		}
		before := real.Stats().Hits()
		real.Do(Access{Addr: addr, Size: 4, Kind: kind})
		realHit := real.Stats().Hits() > before
		refHit, evictedDirty := ref.access(addr, write)
		if evictedDirty {
			refWritebacks++
		}
		if realHit != refHit {
			t.Fatalf("access %d: real hit=%v ref hit=%v", i, realHit, refHit)
		}
	}
	if sink.writebacks != refWritebacks {
		t.Fatalf("writebacks: real %d ref %d", sink.writebacks, refWritebacks)
	}
	if hr := real.Stats().HitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("suspicious hit rate %v for a mixed sequence", hr)
	}
}

// TestResidentCountAgainstReferenceModel drives seeded mixes of Do,
// DoBatch, Invalidate, Flush and FlushRange — over both its sparse
// touched-sets path and its dense scan — through the cache and the refCache
// specification. After every operation the O(1) resident count must equal a
// full scan of the line array and the specification's resident set, and
// hits, writebacks and flush walk costs must classify identically.
func TestResidentCountAgainstReferenceModel(t *testing.T) {
	var sparse, dense int
	for seed := uint64(1); seed <= 300; seed++ {
		rng := xorshift(seed*0x9e3779b97f4a7c15 + 7)
		cfg := streamGeometries[rng.next()%uint64(len(streamGeometries))]
		sink := &countingSink{}
		c := New(cfg, sink)
		ref := newRefCache(cfg.Size, cfg.LineSize, cfg.Ways)
		refWritebacks := 0
		var scratch Batch
		span := 4 * cfg.Size / cfg.LineSize // lines the stream draws from
		access := func(a Access) int {
			hits := 0
			first := a.Addr / cfg.LineSize
			last := (a.Addr + a.Size - 1) / cfg.LineSize
			for ln := first; ln <= last; ln++ {
				hit, evictedDirty := ref.access(ln*cfg.LineSize, a.Kind == Write)
				if hit {
					hits++
				}
				if evictedDirty {
					refWritebacks++
				}
			}
			return hits
		}
		randAccess := func() Access {
			kind := Read
			if rng.next()%3 == 0 {
				kind = Write
			}
			return Access{Addr: int64(rng.next()%uint64(span))*cfg.LineSize + int64(rng.next()%8), Size: int64(rng.next()%96) + 1, Kind: kind}
		}
		for op := 0; op < 200; op++ {
			var what string
			before := c.Stats().Hits()
			wantHits := 0
			switch r := rng.next() % 16; {
			case r < 8:
				what = "Do"
				a := randAccess()
				c.Do(a)
				wantHits = access(a)
			case r < 11:
				what = "DoBatch"
				accs := make([]Access, rng.next()%12+1)
				for i := range accs {
					accs[i] = randAccess()
					wantHits += access(accs[i])
				}
				c.DoBatch(accs, make([]Result, len(accs)), &scratch)
			case r < 12:
				what = "Invalidate"
				c.Invalidate()
				ref.invalidate()
			case r < 13:
				what = "Flush"
				resident := c.ResidentLines()
				wb, cost := c.Flush(1)
				dropped, dirty := ref.flush(0, math.MaxInt64)
				refWritebacks += dirty
				if int64(dropped) != resident || wb != int64(dirty) || cost != units.Latency(dropped) {
					t.Fatalf("seed %d op %d: Flush dropped %d lines (cost %v, %d writebacks), ref %d lines (%d dirty)",
						seed, op, resident, cost, wb, dropped, dirty)
				}
			default:
				// Ranges shorter than the set count take the sparse path;
				// longer ones the dense scan.
				lines := int64(rng.next()%uint64(3*c.setCount)) + 1
				if lines < c.setCount {
					what = "FlushRange/sparse"
					sparse++
				} else {
					what = "FlushRange/dense"
					dense++
				}
				lo := int64(rng.next()%uint64(span))*cfg.LineSize + int64(rng.next()%uint64(cfg.LineSize))
				hi := lo + (lines-1)*cfg.LineSize + 1
				wb, cost := c.FlushRange(lo, hi, 1)
				dropped, dirty := ref.flush(lo, hi)
				refWritebacks += dirty
				if wb != int64(dirty) || cost != units.Latency(dropped) {
					t.Fatalf("seed %d op %d: FlushRange [%d,%d) cost %v with %d writebacks, ref %d lines (%d dirty)",
						seed, op, lo, hi, cost, wb, dropped, dirty)
				}
			}
			if got := int(c.Stats().Hits() - before); got != wantHits {
				t.Fatalf("seed %d op %d (%s): %d line hits, ref %d", seed, op, what, got, wantHits)
			}
			refResident := ref.resident()
			if n, scan := c.ResidentLines(), scanResident(c); n != scan || n != int64(len(refResident)) {
				t.Fatalf("seed %d op %d (%s): ResidentLines %d, full scan %d, ref %d", seed, op, what, n, scan, len(refResident))
			}
			for line := range refResident {
				if !c.Contains(line * cfg.LineSize) {
					t.Fatalf("seed %d op %d (%s): line %d resident in ref but not in cache", seed, op, what, line)
				}
			}
			if sink.writebacks != refWritebacks {
				t.Fatalf("seed %d op %d (%s): writebacks %d, ref %d", seed, op, what, sink.writebacks, refWritebacks)
			}
		}
	}
	if sparse == 0 || dense == 0 {
		t.Fatalf("FlushRange paths exercised: sparse %d, dense %d; both must run", sparse, dense)
	}
}

// TestInvalidateGenerationWrap pins the one non-O(1) Invalidate: when the
// generation counter wraps, the line array is cleared, so a line filled
// generations ago cannot come back to life when the counter reuses its
// generation, and the cache refills exactly like a fresh one.
func TestInvalidateGenerationWrap(t *testing.T) {
	if size := unsafe.Sizeof(line{}); size != 24 {
		t.Fatalf("line is %d bytes, want 24", size)
	}
	cfg := Config{Name: "c", Size: 1024, LineSize: 64, Ways: 2, HitLatency: 1}
	c := New(cfg, &countingSink{})
	// Generation 1 fills all 16 ways; they would match a reused generation 1.
	for i := int64(0); i < 16; i++ {
		c.Do(Access{Addr: i * 64, Size: 8, Kind: Write})
	}
	c.Invalidate()
	// Jump to the last generation and refill half the sets there — stale
	// generation-1 lines stay in the other half — then wrap.
	c.gen = math.MaxUint32
	for i := int64(16); i < 20; i++ {
		c.Do(Access{Addr: i * 64, Size: 8, Kind: Read})
	}
	if c.ResidentLines() != 4 {
		t.Fatalf("resident before wrap = %d, want 4", c.ResidentLines())
	}
	c.Invalidate()
	if c.gen != 1 || c.ResidentLines() != 0 || scanResident(c) != 0 {
		t.Fatalf("after wrap: gen %d, ResidentLines %d, scan %d; want 1, 0, 0", c.gen, c.ResidentLines(), scanResident(c))
	}
	for i := int64(0); i < 20; i++ {
		if c.Contains(i * 64) {
			t.Fatalf("line %d from before the wrap is still resident", i)
		}
	}
	c.ResetStats()
	fresh := New(cfg, &countingSink{})
	rng := xorshift(0x5eed)
	for i := 0; i < 400; i++ {
		a := Access{Addr: int64(rng.next() % 4096), Size: int64(rng.next()%70) + 1, Kind: Kind(rng.next() % 2)}
		if got, want := c.Do(a), fresh.Do(a); got != want {
			t.Fatalf("access %d (%+v): wrapped cache %+v, fresh cache %+v", i, a, got, want)
		}
	}
	if got, want := c.Stats(), fresh.Stats(); got != want || c.ResidentLines() != fresh.ResidentLines() || c.ResidentLines() != scanResident(c) {
		t.Fatalf("wrapped cache diverged from a fresh one: stats %+v vs %+v, resident %d vs %d",
			got, want, c.ResidentLines(), fresh.ResidentLines())
	}
}
