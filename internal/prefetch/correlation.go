// Correlation-based prefetching (Charney & Reeves, the paper's reference
// [2]): "keeps prior L1 cache miss addresses and triggers prefetches by
// correlating subsequent misses to the history" (§1.1).
//
// The implementation is the classic pair-correlation table: a
// set-associative table keyed by miss line address whose entry holds the
// line that missed *next* last time. On a miss to A, the predictor looks
// up A; a hit on (A → B) prefetches B. Every miss also updates the entry
// of the previous miss, chaining the miss stream into pairs. This is the
// third hardware prefetcher family the paper names, completing the
// NSP/SDP/stride/correlation set, and it is exercised by the correlation
// ablation row.
package prefetch

import (
	"fmt"

	"repro/internal/core"
)

// corrEntry is one correlation pair.
type corrEntry struct {
	valid bool
	tag   uint64
	next  uint64 // the line that missed after this one last time
	lru   uint64
}

// Correlation is the pair-correlation miss prefetcher.
type Correlation struct {
	entries []corrEntry // set-major: ways of set s at [s*assoc, (s+1)*assoc)
	assoc   int
	setMask uint64
	tick    uint64

	lastMiss  uint64
	lastValid bool

	Triggers uint64
	Updates  uint64
}

// NewCorrelation builds a correlation table with the given power-of-two
// set count and associativity.
func NewCorrelation(sets, assoc int) (*Correlation, error) {
	if sets <= 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("prefetch: correlation sets must be a positive power of two, got %d", sets)
	}
	if assoc <= 0 {
		return nil, fmt.Errorf("prefetch: correlation associativity must be positive, got %d", assoc)
	}
	return &Correlation{entries: make([]corrEntry, sets*assoc), assoc: assoc, setMask: uint64(sets - 1)}, nil
}

// split returns lineAddr's set of ways and its tag.
func (c *Correlation) split(lineAddr uint64) ([]corrEntry, uint64) {
	base := int(lineAddr&c.setMask) * c.assoc
	return c.entries[base : base+c.assoc], lineAddr >> 1 // full-ish tag; cheap
}

// lookup returns the correlated next line for a miss address.
func (c *Correlation) lookup(lineAddr uint64) (uint64, bool) {
	set, tag := c.split(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.tick++
			set[i].lru = c.tick
			return set[i].next, true
		}
	}
	return 0, false
}

// update records (prev → next) in the table.
func (c *Correlation) update(prev, next uint64) {
	set, tag := c.split(prev)
	c.tick++
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].next = next
			set[i].lru = c.tick
			return
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = corrEntry{valid: true, tag: tag, next: next, lru: c.tick}
	c.Updates++
}

// Name implements Prefetcher.
func (c *Correlation) Name() string { return "corr" }

// Observe implements Prefetcher: the predictor watches the L1 miss
// stream only.
func (c *Correlation) Observe(ev Event, emit func(Candidate)) {
	if ev.L1Hit {
		return
	}
	// Chain the miss stream: the previous miss now knows its successor.
	if c.lastValid && c.lastMiss != ev.LineAddr {
		c.update(c.lastMiss, ev.LineAddr)
	}
	c.lastMiss = ev.LineAddr
	c.lastValid = true

	if next, ok := c.lookup(ev.LineAddr); ok && next != ev.LineAddr {
		c.Triggers++
		emit(Candidate{LineAddr: next, TriggerPC: ev.PC, Source: core.SrcCorrelation})
	}
}
