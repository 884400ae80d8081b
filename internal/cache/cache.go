// Package cache implements a deterministic set-associative cache simulator.
//
// It is the ground-truth engine behind the framework's profiler: every
// simulated CPU instruction and GPU memory transaction is pushed through a
// hierarchy of Cache levels terminating in a memory device, and the
// hit/miss/traffic counters collected here feed the paper's cache-usage
// equations (eqns 1-2).
//
// Levels are composable: a Cache forwards misses to its lower Level, which is
// either another Cache or a memory device (internal/memdev). A Cache can be
// bypassed at runtime (SetEnabled(false)) — this is how the simulator models
// the LLC being disabled under the zero-copy communication model.
//
// Caches are write-back, write-allocate, with true-LRU replacement. They are
// not safe for concurrent use; each simulated agent owns its hierarchy.
package cache

import (
	"fmt"

	"igpucomm/internal/heatmap"
	"igpucomm/internal/units"
)

// Kind distinguishes demand reads, demand writes, and writebacks so that
// lower levels can account for traffic correctly.
type Kind uint8

// Access kinds.
const (
	Read Kind = iota
	Write
	Writeback // dirty eviction traffic; latency-free (buffered off critical path)
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Writeback:
		return "writeback"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Access is one memory request presented to a Level.
type Access struct {
	Addr int64
	Size int64
	Kind Kind
}

// Result reports how a request was serviced.
type Result struct {
	// Latency is the total latency on the critical path, in simulated
	// nanoseconds.
	Latency units.Latency
	// ServedBy names the level that supplied (or absorbed) the data.
	ServedBy string
}

// Level is anything that can service memory accesses: a cache or a memory
// device.
type Level interface {
	Name() string
	Do(a Access) Result
}

// Config describes one cache level.
type Config struct {
	Name       string
	Size       int64 // total capacity in bytes
	LineSize   int64 // bytes per line; power of two
	Ways       int   // associativity; Size/LineSize must be divisible by Ways
	HitLatency units.Latency
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Size <= 0:
		return fmt.Errorf("cache %s: size %d must be positive", c.Name, c.Size)
	case c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache %s: line size %d must be a positive power of two", c.Name, c.LineSize)
	case c.Ways <= 0:
		return fmt.Errorf("cache %s: ways %d must be positive", c.Name, c.Ways)
	case c.Size%(c.LineSize*int64(c.Ways)) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by line*ways %d", c.Name, c.Size, c.LineSize*int64(c.Ways))
	}
	sets := c.Size / (c.LineSize * int64(c.Ways))
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d must be a power of two", c.Name, sets)
	}
	return nil
}

// line is one way of a set. It holds data iff gen equals its cache's
// current generation, so Invalidate drops every line by bumping the
// generation instead of clearing the array.
type line struct {
	tag     int64
	lastUse uint64
	gen     uint32
	dirty   bool
}

// Cache is one set-associative level.
type Cache struct {
	cfg      Config
	lower    Level
	sets     []line // sets*ways, laid out set-major
	ways     int
	setCount int64
	offBits  uint
	useClock uint64
	// gen is the current line generation (never 0; see line). resident
	// counts the lines of that generation, so ResidentLines is O(1) and a
	// flush stops scanning once it has visited every resident line.
	gen      uint32
	resident int64
	enabled  bool
	stats    Stats
	// heat, when non-nil, receives one record per line serviced. Only
	// entry-level caches (CPU L1, per-SM GPU L1s) carry a sink, so a page is
	// attributed exactly once per demand touch; the nil check is the entire
	// cost of the disabled path.
	heat *heatmap.Accumulator
}

// New builds a cache level on top of lower. It panics if cfg is invalid or
// lower is nil: cache geometry is static configuration, and a bad geometry is
// a programming error, not a runtime condition.
func New(cfg Config, lower Level) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if lower == nil {
		panic(fmt.Sprintf("cache %s: nil lower level", cfg.Name))
	}
	setCount := cfg.Size / (cfg.LineSize * int64(cfg.Ways))
	offBits := uint(0)
	for l := cfg.LineSize; l > 1; l >>= 1 {
		offBits++
	}
	return &Cache{
		cfg:      cfg,
		lower:    lower,
		sets:     make([]line, setCount*int64(cfg.Ways)),
		ways:     cfg.Ways,
		setCount: setCount,
		offBits:  offBits,
		gen:      1,
		enabled:  true,
	}
}

// Name returns the configured level name.
func (c *Cache) Name() string { return c.cfg.Name }

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Lower returns the next level down.
func (c *Cache) Lower() Level { return c.lower }

// Enabled reports whether the cache is participating in lookups.
func (c *Cache) Enabled() bool { return c.enabled }

// SetEnabled switches the cache in or out of the access path. Disabling
// flushes nothing by itself — callers that need coherence must Flush first
// (see internal/coherence). While disabled, every access is forwarded to the
// lower level and counted as a bypass.
func (c *Cache) SetEnabled(on bool) { c.enabled = on }

// SetHeatSink attaches (or, with nil, detaches) the per-page heat
// accumulator this level reports line traffic to. Heat recording never
// changes a Result or any cache state, so enabling it cannot perturb the
// simulation.
func (c *Cache) SetHeatSink(h *heatmap.Accumulator) { c.heat = h }

// Do services one access, recursing into lower levels on miss. Requests
// larger than a line are split into per-line requests and the latencies are
// summed (the agent models decide what issues; the cache just services).
func (c *Cache) Do(a Access) Result {
	if a.Size <= 0 {
		return Result{}
	}
	if !c.enabled {
		c.stats.Bypasses++
		c.stats.BypassBytes += a.Size
		if c.heat != nil && a.Kind != Writeback {
			// A bypassed demand access is serviced below this level: a miss
			// by construction.
			c.heat.Record(a.Addr, a.Size, a.Kind == Write, true)
		}
		return c.lower.Do(a)
	}
	var total Result
	first := a.Addr >> c.offBits
	last := (a.Addr + a.Size - 1) >> c.offBits
	for ln := first; ln <= last; ln++ {
		r := c.doLine(ln, a.Kind)
		total.Latency += r.Latency
		total.ServedBy = r.ServedBy // last line wins; uniform for aligned requests
	}
	return total
}

func (c *Cache) doLine(lineAddr int64, kind Kind) Result {
	c.useClock++
	set := lineAddr & (c.setCount - 1)
	tag := lineAddr >> uintLog2(c.setCount)
	base := set * int64(c.ways)
	ways := c.sets[base : base+int64(c.ways)]

	c.stats.count(kind, c.cfg.LineSize)

	// Hit path.
	for i := range ways {
		if ways[i].gen == c.gen && ways[i].tag == tag {
			ways[i].lastUse = c.useClock
			if kind != Read {
				ways[i].dirty = true
			}
			c.stats.countHit(kind)
			if c.heat != nil {
				c.heat.Record(lineAddr<<c.offBits, c.cfg.LineSize, kind != Read, false)
			}
			return Result{Latency: c.cfg.HitLatency, ServedBy: c.cfg.Name}
		}
	}
	if c.heat != nil {
		c.heat.Record(lineAddr<<c.offBits, c.cfg.LineSize, kind != Read, true)
	}

	// Miss: pick victim (invalid first, else LRU).
	victim := 0
	for i := range ways {
		if ways[i].gen != c.gen {
			victim = i
			break
		}
		if ways[i].lastUse < ways[victim].lastUse {
			victim = i
		}
	}
	v := &ways[victim]
	if v.gen != c.gen {
		c.resident++
	} else {
		c.stats.Evictions++
		if v.dirty {
			c.stats.Writebacks++
			wbAddr := (v.tag<<uintLog2(c.setCount) | set) << c.offBits
			if c.heat != nil {
				c.heat.RecordWriteback(wbAddr, c.cfg.LineSize)
			}
			c.lower.Do(Access{Addr: wbAddr, Size: c.cfg.LineSize, Kind: Writeback})
		}
	}

	// Fill from below. Writebacks arriving here allocate without a demand
	// fetch (the line is fully overwritten), so only Read/Write fetch.
	var lowerRes Result
	if kind != Writeback {
		lowerRes = c.lower.Do(Access{Addr: lineAddr << c.offBits, Size: c.cfg.LineSize, Kind: kind})
	}
	*v = line{tag: tag, lastUse: c.useClock, gen: c.gen, dirty: kind != Read}

	served := lowerRes.ServedBy
	if served == "" {
		served = c.cfg.Name
	}
	return Result{Latency: c.cfg.HitLatency + lowerRes.Latency, ServedBy: served}
}

// Flush writes back all dirty lines and invalidates the whole cache,
// returning the number of lines written back and the cycle cost on the
// flushing agent (per-line tag walk plus writeback issue). This is the
// operation the standard-copy model performs around every kernel launch.
func (c *Cache) Flush(perLineCost units.Latency) (writebacks int64, cost units.Latency) {
	// Lines are visited in ascending index order, as a full scan would, but
	// the walk stops once every resident line has been seen.
	left := c.resident
	for i := 0; left > 0; i++ {
		l := &c.sets[i]
		if l.gen != c.gen {
			continue
		}
		left--
		cost += perLineCost
		if l.dirty {
			writebacks++
			set := int64(i) / int64(c.ways)
			wbAddr := (l.tag<<uintLog2(c.setCount) | set) << c.offBits
			if c.heat != nil {
				c.heat.RecordWriteback(wbAddr, c.cfg.LineSize)
			}
			c.lower.Do(Access{Addr: wbAddr, Size: c.cfg.LineSize, Kind: Writeback})
		}
		*l = line{}
	}
	c.resident = 0
	c.stats.Flushes++
	c.stats.FlushWritebacks += writebacks
	return writebacks, cost
}

// FlushRange writes back and invalidates only the lines holding addresses in
// [lo, hi) — what cache-maintenance-by-VA instructions do. This is how
// software coherence actually flushes shared buffers around kernel launches:
// the agent's private working set stays cached.
func (c *Cache) FlushRange(lo, hi int64, perLineCost units.Latency) (writebacks int64, cost units.Latency) {
	if hi <= lo {
		return 0, 0
	}
	setBits := uintLog2(c.setCount)
	firstLine := lo >> c.offBits
	lastLine := (hi - 1) >> c.offBits
	if n := lastLine - firstLine + 1; n < c.setCount {
		// The range covers fewer lines than the cache has sets, so each set
		// holds at most one in-range line: probe only the touched sets
		// instead of scanning every line. Sets are visited in ascending
		// index order, ways ascending within a set — the same order as the
		// dense scan below, so writeback traffic into the lower level is
		// identical and simulation results do not depend on which path ran.
		s0 := firstLine & (c.setCount - 1)
		flushSet := func(set int64) {
			// The one line address in [firstLine, lastLine] congruent to
			// set modulo setCount.
			la := firstLine + ((set - s0) & (c.setCount - 1))
			if la > lastLine {
				return
			}
			tag := la >> setBits
			addr := la << c.offBits
			base := set * int64(c.ways)
			for w := int64(0); w < int64(c.ways); w++ {
				l := &c.sets[base+w]
				if l.gen != c.gen || l.tag != tag {
					continue
				}
				c.resident--
				cost += perLineCost
				if l.dirty {
					writebacks++
					if c.heat != nil {
						c.heat.RecordWriteback(addr, c.cfg.LineSize)
					}
					c.lower.Do(Access{Addr: addr, Size: c.cfg.LineSize, Kind: Writeback})
				}
				*l = line{}
			}
		}
		if s0+n <= c.setCount {
			for set := s0; set < s0+n; set++ {
				flushSet(set)
			}
		} else {
			for set := int64(0); set < s0+n-c.setCount; set++ {
				flushSet(set)
			}
			for set := s0; set < c.setCount; set++ {
				flushSet(set)
			}
		}
		c.stats.Flushes++
		c.stats.FlushWritebacks += writebacks
		return writebacks, cost
	}
	for i := range c.sets {
		l := &c.sets[i]
		if l.gen != c.gen {
			continue
		}
		set := int64(i) / int64(c.ways)
		addr := (l.tag<<setBits | set) << c.offBits
		if addr+c.cfg.LineSize <= lo || addr >= hi {
			continue
		}
		c.resident--
		cost += perLineCost
		if l.dirty {
			writebacks++
			if c.heat != nil {
				c.heat.RecordWriteback(addr, c.cfg.LineSize)
			}
			c.lower.Do(Access{Addr: addr, Size: c.cfg.LineSize, Kind: Writeback})
		}
		*l = line{}
	}
	c.stats.Flushes++
	c.stats.FlushWritebacks += writebacks
	return writebacks, cost
}

// Invalidate drops all lines without writing anything back. Used to model
// the invalidate side of software coherence (before the CPU re-reads data the
// GPU produced under SC). It is O(1): bumping the generation makes every line
// stale. Only when the counter wraps are the lines cleared, so a line from
// before the wrap can never match a reused generation.
func (c *Cache) Invalidate() {
	c.gen++
	if c.gen == 0 {
		clear(c.sets)
		c.gen = 1
	}
	c.resident = 0
	c.stats.Invalidates++
}

// Contains reports whether the line holding addr is currently resident.
// Intended for tests and invariant checks.
func (c *Cache) Contains(addr int64) bool {
	lineAddr := addr >> c.offBits
	set := lineAddr & (c.setCount - 1)
	tag := lineAddr >> uintLog2(c.setCount)
	base := set * int64(c.ways)
	for _, l := range c.sets[base : base+int64(c.ways)] {
		if l.gen == c.gen && l.tag == tag {
			return true
		}
	}
	return false
}

// ResidentLines returns how many lines the cache holds.
func (c *Cache) ResidentLines() int64 { return c.resident }

// Stats returns a snapshot of the level's counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without disturbing cache contents, so a
// profiler can measure a region of interest after warmup.
func (c *Cache) ResetStats() { c.stats = Stats{} }

func uintLog2(v int64) uint {
	n := uint(0)
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
