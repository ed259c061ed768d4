// Package cache implements the set-associative cache model used for both
// the L1 data cache and the unified L2 of the simulated machine.
//
// Beyond the usual tag/valid/dirty state, every line carries the two
// control bits the paper adds for pollution filtering:
//
//   - PIB (Prefetch Indication Bit): set when the line was brought in by a
//     prefetch rather than a demand miss.
//   - RIB (Reference Indication Bit): set on the first demand reference to
//     a prefetched line; only meaningful while PIB is set.
//
// The line also records the PC of the instruction that triggered the
// prefetch so the PC-based filter can be trained on eviction, and the
// shadow-directory state (shadow line address + confirmation bit) the SDP
// prefetcher keeps per L2 line. In real hardware these fields live in
// different structures; folding them into one Line keeps the simulator
// simple without changing observable behaviour.
package cache

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/slab"
	"repro/internal/xrand"
)

// Line is one cache block's bookkeeping state. Tag stores the full line
// address (byte address >> offset bits) rather than the truncated hardware
// tag; the set index is recoverable from it, and keeping the whole address
// makes eviction feedback and inclusion checks trivial.
type Line struct {
	// The flags and PFSource share the first word, so a Line is 56 bytes.
	Valid, Dirty bool
	// Pollution-filter metadata (paper §4).
	PIB      bool        // brought in by a prefetch
	RIB      bool        // demand-referenced since fill (valid only if PIB)
	SoftPF   bool        // prefetch was a software prefetch instruction
	PFSource core.Source // generator of the prefetch (SrcOther for demand fills)
	// Shadow-directory prefetching metadata (used when this cache is the
	// L2; see internal/prefetch.SDP), with Shadow among the words below.
	ShadowValid bool
	Confirm     bool // the shadow prefetch was used since last issued

	Tag       uint64 // full line address
	TriggerPC uint64 // PC that triggered the prefetch (0 for demand fills)
	Shadow    uint64 // next line missed after this line was last accessed

	// DeadSig is the dead-block predictor's per-line signature: a hash of
	// the PC that last touched the line (see internal/deadblock). Zero
	// means "no signature recorded".
	DeadSig uint64

	lru  uint64 // larger = more recently used
	fifo uint64 // insertion order for FIFO replacement
}

// Stats counts cache-level events. Demand and prefetch traffic are tracked
// separately because Figure 2 reports their split.
type Stats struct {
	DemandAccesses uint64 // loads + stores reaching this cache
	DemandHits     uint64
	DemandMisses   uint64
	PrefetchFills  uint64 // lines installed by the prefetch path
	DemandFills    uint64 // lines installed by demand misses
	Evictions      uint64
	Writebacks     uint64 // dirty evictions
}

// MissRate returns demand misses / demand accesses (0 when idle).
func (s Stats) MissRate() float64 {
	if s.DemandAccesses == 0 {
		return 0
	}
	return float64(s.DemandMisses) / float64(s.DemandAccesses)
}

// The dense tag array stores a resident line's address complemented,
// so a zeroed array is an empty cache and an empty frame holds 0. No
// real line complements to 0: line addresses are byte addresses shifted
// right by the offset bits, so the all-ones address is out of range.
func storedTag(lineAddr uint64) uint64 { return ^lineAddr }

// The line and tag arrays of every cache come from, and go back to,
// these pools: a sweep builds one machine per cell, and an L2's arrays
// are about a megabyte.
var (
	linePool slab.Pool[Line]
	tagPool  slab.Pool[uint64]
)

// Cache is a set-associative cache with configurable replacement.
// It is a purely functional state model: timing (latency, ports, bus) is
// imposed by the hierarchy and CPU models on top.
//
// Storage is a single flat Line slice (set-major) instead of a
// slice-of-sets: one indirection fewer per access, and neighbouring ways
// share cache lines of the HOST machine. The tag match itself scans a
// dense parallel []uint64 — a Line is 56 bytes, so probing Line.Tag
// directly would touch about one host cache line per way, while the
// dense array packs 8 ways per host line. Lookup/tag-match is the simulator's
// hottest operation (every demand access, duplicate squash, and
// residency re-check lands here); see docs/PERFORMANCE.md.
type Cache struct {
	cfg      config.CacheConfig
	lines    []Line   // set-major: ways of set s at [s*assoc, (s+1)*assoc)
	tags     []uint64 // storedTag(lines[i].Tag) when valid, else 0
	assoc    int
	setMask  uint64
	offBits  uint
	tick     uint64
	rng      *xrand.Rand
	policy   config.ReplacementPolicy
	replRand func(ways int) int

	Stats Stats
}

// New builds a cache from a validated configuration. rng is used only by
// the random replacement policy and may be nil for LRU/FIFO.
func New(cfg config.CacheConfig, rng *xrand.Rand) (*Cache, error) {
	if err := cfg.Validate("cache"); err != nil {
		return nil, err
	}
	if cfg.Replacement == config.ReplaceRandom && rng == nil {
		return nil, fmt.Errorf("cache: random replacement requires a PRNG")
	}
	frames := cfg.Sets() * cfg.Assoc
	c := &Cache{
		cfg:     cfg,
		lines:   linePool.Get(frames),
		tags:    tagPool.Get(frames),
		assoc:   cfg.Assoc,
		setMask: uint64(cfg.Sets() - 1),
		offBits: log2(uint64(cfg.LineBytes)),
		rng:     rng,
		policy:  cfg.Replacement,
	}
	if rng != nil {
		c.replRand = func(ways int) int { return rng.Intn(ways) }
	}
	return c, nil
}

// Release hands the cache's arrays back for the next cache of the same
// geometry. The cache must not be used afterwards; its arrays are gone,
// so a stray access panics instead of reading another run's state.
func (c *Cache) Release() {
	linePool.Put(c.lines)
	tagPool.Put(c.tags)
	c.lines, c.tags = nil, nil
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the cache geometry.
func (c *Cache) Config() config.CacheConfig { return c.cfg }

// LineAddr converts a byte address to a line address.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.offBits }

// ByteAddr converts a line address back to the base byte address.
func (c *Cache) ByteAddr(lineAddr uint64) uint64 { return lineAddr << c.offBits }

// setIndex maps a line address to its set.
func (c *Cache) setIndex(lineAddr uint64) uint64 { return lineAddr & c.setMask }

// find scans the dense tag array for lineAddr's frame and returns its
// flat index, or -1. The tag array can only hold lineAddr's stored tag at
// a frame whose Line actually stores it (Insert/Invalidate/Flush keep the
// two in lockstep), so no re-confirmation against the Line is needed.
//
//pflint:hotpath
func (c *Cache) find(lineAddr uint64) int {
	base := int(c.setIndex(lineAddr)) * c.assoc
	tags := c.tags[base : base+c.assoc]
	want := storedTag(lineAddr)
	for i, t := range tags {
		if t == want {
			return base + i
		}
	}
	return -1
}

// Lookup finds the line, updating recency state on a hit. The returned
// pointer stays valid until the line is evicted; callers mutate metadata
// (RIB, dirty, shadow state) through it.
//
//pflint:hotpath
func (c *Cache) Lookup(lineAddr uint64) (*Line, bool) {
	if i := c.find(lineAddr); i >= 0 {
		c.tick++
		c.lines[i].lru = c.tick
		return &c.lines[i], true
	}
	return nil, false
}

// Peek finds the line without disturbing replacement state. Used by
// prefetch duplicate squashing and by tests.
func (c *Cache) Peek(lineAddr uint64) (*Line, bool) {
	if i := c.find(lineAddr); i >= 0 {
		return &c.lines[i], true
	}
	return nil, false
}

// Contains reports whether the line is resident.
func (c *Cache) Contains(lineAddr uint64) bool {
	return c.find(lineAddr) >= 0
}

// victim selects the way to replace in set (a full set's window of the
// flat line array).
func (c *Cache) victim(set []Line) int {
	switch c.policy {
	case config.ReplaceRandom:
		return c.replRand(len(set))
	case config.ReplaceFIFO:
		v := 0
		for i := range set {
			if set[i].fifo < set[v].fifo {
				v = i
			}
		}
		return v
	default: // LRU
		v := 0
		for i := range set {
			if set[i].lru < set[v].lru {
				v = i
			}
		}
		return v
	}
}

// Insert installs lineAddr, evicting a victim if the set is full. The
// returned evicted Line (by value) lets the caller run eviction feedback
// (filter training, writeback accounting). The returned pointer addresses
// the freshly installed line so the caller can set its metadata.
//
// Inserting a line that is already resident resets that line in place and
// reports no eviction.
//
//pflint:hotpath
func (c *Cache) Insert(lineAddr uint64) (installed *Line, evicted Line, hadEviction bool) {
	base := int(c.setIndex(lineAddr)) * c.assoc
	set := c.lines[base : base+c.assoc]
	tags := c.tags[base : base+c.assoc]
	want := storedTag(lineAddr)
	c.tick++

	slot := -1
	for i, t := range tags {
		if t == want {
			slot = i
			break
		}
	}
	if slot < 0 {
		for i, t := range tags {
			if t == 0 {
				slot = i
				break
			}
		}
	}
	if slot < 0 {
		slot = c.victim(set)
		evicted = set[slot]
		hadEviction = true
		c.Stats.Evictions++
		if evicted.Dirty {
			c.Stats.Writebacks++
		}
	}
	set[slot] = Line{Valid: true, Tag: lineAddr, lru: c.tick, fifo: c.tick}
	tags[slot] = want
	return &set[slot], evicted, hadEviction
}

// PeekVictim returns the line that Insert(lineAddr) would evict, without
// mutating any state. It reports false when the set still has a free
// frame (no eviction would occur) or the line is already resident. For
// the random policy the preview uses the LRU victim — previews must be
// side-effect free, and the caller only needs a representative occupant.
func (c *Cache) PeekVictim(lineAddr uint64) (*Line, bool) {
	base := int(c.setIndex(lineAddr)) * c.assoc
	set := c.lines[base : base+c.assoc]
	want := storedTag(lineAddr)
	for _, t := range c.tags[base : base+c.assoc] {
		if t == 0 || t == want {
			return nil, false
		}
	}
	v := 0
	switch c.policy {
	case config.ReplaceFIFO:
		for i := range set {
			if set[i].fifo < set[v].fifo {
				v = i
			}
		}
	default: // LRU, and LRU-preview for random
		for i := range set {
			if set[i].lru < set[v].lru {
				v = i
			}
		}
	}
	return &set[v], true
}

// Invalidate removes a line if resident, returning its final state so the
// caller can process writeback/feedback.
func (c *Cache) Invalidate(lineAddr uint64) (Line, bool) {
	if i := c.find(lineAddr); i >= 0 {
		old := c.lines[i]
		c.lines[i] = Line{}
		c.tags[i] = 0
		return old, true
	}
	return Line{}, false
}

// ForEach visits every valid line. Used for end-of-run classification of
// still-resident prefetched lines and by invariants in tests. The visit
// order is deterministic (set-major, way-minor).
func (c *Cache) ForEach(fn func(*Line)) {
	for i := range c.lines {
		if c.lines[i].Valid {
			fn(&c.lines[i])
		}
	}
}

// ValidLines counts resident lines.
func (c *Cache) ValidLines() int {
	n := 0
	c.ForEach(func(*Line) { n++ })
	return n
}

// Capacity returns the total number of line frames.
func (c *Cache) Capacity() int { return c.cfg.Sets() * c.cfg.Assoc }

// DumpMetrics exports the cache's statistics and current occupancy into
// the registry under prefix ("sim.l1" -> "sim.l1.demand_hits", ...).
// Occupancy distinguishes demand-fetched lines from prefetched ones
// (and, among those, referenced vs. not) so a snapshot shows how much of
// the cache the prefetcher currently owns. No-op on a nil registry.
func (c *Cache) DumpMetrics(reg *metrics.Registry, prefix string) {
	if reg == nil {
		return
	}
	set := func(name string, v uint64) { reg.Counter(prefix + "." + name).Set(v) }
	set("demand_accesses", c.Stats.DemandAccesses)
	set("demand_hits", c.Stats.DemandHits)
	set("demand_misses", c.Stats.DemandMisses)
	set("demand_fills", c.Stats.DemandFills)
	set("prefetch_fills", c.Stats.PrefetchFills)
	set("evictions", c.Stats.Evictions)
	set("writebacks", c.Stats.Writebacks)
	var valid, pib, pibRef uint64
	c.ForEach(func(l *Line) {
		valid++
		if l.PIB {
			pib++
			if l.RIB {
				pibRef++
			}
		}
	})
	set("lines_valid", valid)
	set("lines_capacity", uint64(c.Capacity()))
	set("lines_prefetched", pib)
	set("lines_prefetched_referenced", pibRef)
}

// Flush invalidates everything, returning the number of dirty lines that
// would have been written back.
func (c *Cache) Flush() (writebacks int) {
	for i := range c.lines {
		if c.lines[i].Valid && c.lines[i].Dirty {
			writebacks++
		}
		c.lines[i] = Line{}
		c.tags[i] = 0
	}
	return writebacks
}
