// Package cache implements the set-associative cache model used for the
// L1 caches and the unified L2 of the simulated machine.
//
// A cache keeps three dense arrays with one element per frame: the tag
// (which also says whether the frame holds a line), a replacement stamp,
// and a per-level frame record holding only the state that level's
// readers need. An L1 frame (L1Line) carries the two control bits the
// paper adds for pollution filtering:
//
//   - PIB (Prefetch Indication Bit): set when the line was brought in by a
//     prefetch rather than a demand miss.
//   - RIB (Reference Indication Bit): set on the first demand reference to
//     a prefetched line; only meaningful while PIB is set.
//
// It also records the PC of the instruction that triggered the prefetch,
// so the PC-based filter can be trained on eviction, and the dead-block
// predictor's signature. An L2 frame (L2Line) carries the dirty bit and
// the shadow-directory state (shadow line address + confirmation bit) the
// SDP prefetcher keeps per L2 line.
package cache

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/slab"
	"repro/internal/xrand"
)

// L1Line is an L1 frame's record: the dirty bit and the pollution
// filter's and dead-block predictor's per-line state. Its flags and
// PFSource share the first word, so it is three words.
type L1Line struct {
	Dirty bool
	// Pollution-filter metadata (paper §4).
	PIB       bool        // brought in by a prefetch
	RIB       bool        // demand-referenced since fill (valid only if PIB)
	SoftPF    bool        // prefetch was a software prefetch instruction
	PFSource  core.Source // generator of the prefetch (SrcOther for demand fills)
	TriggerPC uint64      // PC that triggered the prefetch (0 for demand fills)

	// DeadSig is the dead-block predictor's per-line signature: a hash of
	// the PC that last touched the line (see internal/deadblock). Zero
	// means "no signature recorded".
	DeadSig uint64
}

// L2Line is an L2 frame's record: the dirty bit and the shadow-directory
// state of the SDP prefetcher (internal/prefetch.SDP). Two words.
type L2Line struct {
	Dirty       bool
	ShadowValid bool
	Confirm     bool   // the shadow prefetch was used since last issued
	Shadow      uint64 // next line missed after this line was last accessed
}

// Frame is the per-frame record a cache level keeps beside its tags and
// replacement stamps.
type Frame interface {
	L1Line | L2Line
	dirty() bool
	// prefetched reports the PIB and RIB bits; a level that does not
	// track them reports false.
	prefetched() (pib, referenced bool)
}

func (l L1Line) dirty() bool                        { return l.Dirty }
func (l L1Line) prefetched() (pib, referenced bool) { return l.PIB, l.RIB }
func (l L2Line) dirty() bool                        { return l.Dirty }
func (L2Line) prefetched() (pib, referenced bool)   { return false, false }

// L1 and L2 are the two levels' caches.
type (
	L1 = Cache[L1Line]
	L2 = Cache[L2Line]
)

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

// lineAddrOf inverts storedTag.
func lineAddrOf(tag uint64) uint64 { return ^tag }

// The arrays of every cache come from, and go back to, these pools: a
// sweep builds one machine per cell, and an L2's arrays are about half a
// megabyte. Only the tags come back zeroed. The stamp and record of a
// frame are written when a line is installed in it, and read only while
// its tag says the frame holds a line, so whatever an earlier cache left
// in them is never read.
var (
	tagPool   slab.Pool[uint64]
	stampPool slab.Pool[uint64]
	l1Pool    slab.Pool[L1Line]
	l2Pool    slab.Pool[L2Line]
)

// framePool returns the pool of F's record arrays.
func framePool[F Frame]() *slab.Pool[F] {
	if p, ok := any(&l1Pool).(*slab.Pool[F]); ok {
		return p
	}
	return any(&l2Pool).(*slab.Pool[F])
}

// Cache is a set-associative cache with configurable replacement.
// It is a purely functional state model: timing (latency, ports, bus) is
// imposed by the hierarchy and CPU models on top.
//
// Storage is three flat set-major arrays (the ways of set s at
// [s*assoc, (s+1)*assoc)) instead of a slice-of-sets: one indirection
// fewer per access, and neighbouring ways share cache lines of the HOST
// machine. The tag match scans the dense tag array, 8 ways per host
// cache line, and a victim scan reads only the dense stamps; the frame
// records are touched only for the frame that hits or is evicted.
// Lookup/tag-match is the simulator's hottest operation (every demand
// access, duplicate squash, and residency re-check lands here); see
// docs/PERFORMANCE.md.
type Cache[F Frame] struct {
	cfg    config.CacheConfig
	tags   []uint64 // storedTag(line address) of a resident line, else 0
	stamps []uint64 // replacement stamp, read only where tags != 0
	frames []F      // frame records, read only where tags != 0
	assoc  int
	// setMask selects the set, offBits the offset within a line.
	setMask uint64
	offBits uint
	// tick orders stamps. FIFO stamps a frame only when a line is
	// installed; LRU and random also stamp it on a hit (restamp), so
	// PeekVictim can preview random replacement with the LRU way. A
	// direct-mapped cache has one way to pick, so it restamps nothing.
	tick    uint64
	restamp bool
	rng     *xrand.Rand // non-nil only under random replacement
	// evicted is the record of the line Insert last evicted. Insert hands
	// it out by pointer: returned by value, an L1Line comes back in
	// registers, which the caller stores byte by byte and then copies a
	// word at a time, a store-forwarding stall on every fill.
	evicted F

	Stats Stats
}

// New builds a cache from a validated configuration. rng is used only by
// the random replacement policy and may be nil for LRU/FIFO.
func New[F Frame](cfg config.CacheConfig, rng *xrand.Rand) (*Cache[F], error) {
	if err := cfg.Validate("cache"); err != nil {
		return nil, err
	}
	random := cfg.Replacement == config.ReplaceRandom
	if random && rng == nil {
		return nil, fmt.Errorf("cache: random replacement requires a PRNG")
	}
	if !random {
		rng = nil
	}
	n := cfg.Sets() * cfg.Assoc
	return &Cache[F]{
		cfg:     cfg,
		tags:    tagPool.Get(n),
		stamps:  stampPool.GetStale(n),
		frames:  framePool[F]().GetStale(n),
		assoc:   cfg.Assoc,
		setMask: uint64(cfg.Sets() - 1),
		offBits: log2(uint64(cfg.LineBytes)),
		restamp: cfg.Replacement != config.ReplaceFIFO && cfg.Assoc > 1,
		rng:     rng,
	}, nil
}

// Release hands the cache's arrays back for the next cache of the same
// geometry. The cache must not be used afterwards; its arrays are gone,
// so a stray access panics instead of reading another run's state.
func (c *Cache[F]) Release() {
	tagPool.Put(c.tags)
	stampPool.Put(c.stamps)
	framePool[F]().Put(c.frames)
	c.tags, c.stamps, c.frames = nil, nil, nil
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
func (c *Cache[F]) Config() config.CacheConfig { return c.cfg }

// LineAddr converts a byte address to a line address.
func (c *Cache[F]) LineAddr(addr uint64) uint64 { return addr >> c.offBits }

// ByteAddr converts a line address back to the base byte address.
func (c *Cache[F]) ByteAddr(lineAddr uint64) uint64 { return lineAddr << c.offBits }

// setBase returns the flat index of lineAddr's set's first way.
func (c *Cache[F]) setBase(lineAddr uint64) int { return int(lineAddr&c.setMask) * c.assoc }

// find scans the dense tag array for lineAddr's frame and returns its
// flat index, or -1.
//
//pflint:hotpath
func (c *Cache[F]) find(lineAddr uint64) int {
	base := c.setBase(lineAddr)
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
func (c *Cache[F]) Lookup(lineAddr uint64) (*F, bool) {
	if i := c.find(lineAddr); i >= 0 {
		c.tick++
		if c.restamp {
			c.stamps[i] = c.tick
		}
		return &c.frames[i], true
	}
	return nil, false
}

// Peek finds the line without disturbing replacement state. Used by
// prefetch duplicate squashing and by tests.
func (c *Cache[F]) Peek(lineAddr uint64) (*F, bool) {
	if i := c.find(lineAddr); i >= 0 {
		return &c.frames[i], true
	}
	return nil, false
}

// Contains reports whether the line is resident.
func (c *Cache[F]) Contains(lineAddr uint64) bool {
	return c.find(lineAddr) >= 0
}

// oldest returns the way with the smallest stamp, the first on a tie.
func oldest(stamps []uint64) int {
	v := 0
	for i, s := range stamps {
		if s < stamps[v] {
			v = i
		}
	}
	return v
}

// Insert installs lineAddr, evicting a victim if the set is full. The
// returned installed pointer addresses the freshly installed, zeroed
// record so the caller can set its metadata. When a line was evicted,
// evicted points to a copy of its final record, valid until the next
// Insert, and evictedAddr is its line address; they let the caller run
// eviction feedback (filter training, writeback accounting). Otherwise
// evicted is nil and evictedAddr 0.
//
// Inserting a line that is already resident resets that line in place and
// reports no eviction.
//
//pflint:hotpath
func (c *Cache[F]) Insert(lineAddr uint64) (installed, evicted *F, evictedAddr uint64) {
	base := c.setBase(lineAddr)
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
		// A full set: every stamp in it was written by this cache.
		if c.rng != nil {
			slot = c.rng.Intn(c.assoc)
		} else {
			slot = oldest(c.stamps[base : base+c.assoc])
		}
		c.evicted, evicted, evictedAddr = c.frames[base+slot], &c.evicted, lineAddrOf(tags[slot])
		c.Stats.Evictions++
		if c.evicted.dirty() {
			c.Stats.Writebacks++
		}
	}
	i := base + slot
	tags[slot] = want
	c.stamps[i] = c.tick
	var zero F
	c.frames[i] = zero
	return &c.frames[i], evicted, evictedAddr
}

// PeekVictim returns the record of the line that Insert(lineAddr) would
// evict, without mutating any state. It reports false when the set still
// has a free frame (no eviction would occur) or the line is already
// resident. For the random policy the preview uses the LRU victim —
// previews must be side-effect free, and the caller only needs a
// representative occupant.
func (c *Cache[F]) PeekVictim(lineAddr uint64) (*F, bool) {
	base := c.setBase(lineAddr)
	want := storedTag(lineAddr)
	for _, t := range c.tags[base : base+c.assoc] {
		if t == 0 || t == want {
			return nil, false
		}
	}
	return &c.frames[base+oldest(c.stamps[base:base+c.assoc])], true
}

// Invalidate removes a line if resident, returning its final state so the
// caller can process writeback/feedback.
func (c *Cache[F]) Invalidate(lineAddr uint64) (F, bool) {
	if i := c.find(lineAddr); i >= 0 {
		c.tags[i] = 0
		return c.frames[i], true
	}
	var zero F
	return zero, false
}

// ForEach visits every resident line with its address. Used for
// end-of-run classification of still-resident prefetched lines and by
// invariants in tests. The visit order is deterministic (set-major,
// way-minor).
func (c *Cache[F]) ForEach(fn func(lineAddr uint64, f *F)) {
	for i, t := range c.tags {
		if t != 0 {
			fn(lineAddrOf(t), &c.frames[i])
		}
	}
}

// ValidLines counts resident lines.
func (c *Cache[F]) ValidLines() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}

// Capacity returns the total number of line frames.
func (c *Cache[F]) Capacity() int { return c.cfg.Sets() * c.cfg.Assoc }

// DumpMetrics exports the cache's statistics and current occupancy into
// the registry under prefix ("sim.l1" -> "sim.l1.demand_hits", ...).
// Occupancy distinguishes demand-fetched lines from prefetched ones
// (and, among those, referenced vs. not) so a snapshot shows how much of
// the cache the prefetcher currently owns; a level without PIB/RIB bits
// (the L2) reports no prefetched lines. No-op on a nil registry.
func (c *Cache[F]) DumpMetrics(reg *metrics.Registry, prefix string) {
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
	c.ForEach(func(_ uint64, f *F) {
		valid++
		if p, ref := (*f).prefetched(); p {
			pib++
			if ref {
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
func (c *Cache[F]) Flush() (writebacks int) {
	for i, t := range c.tags {
		if t != 0 && c.frames[i].dirty() {
			writebacks++
		}
	}
	clear(c.tags)
	return writebacks
}
