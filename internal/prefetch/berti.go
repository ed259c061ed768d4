package prefetch

import (
	"fmt"

	"repro/internal/core"
)

// pcIndex mixes the whole PC into the low index bits so PCs that differ
// only above a table's index range (unrolled loop copies, inlined call
// sites at regular code strides) do not collide into one direct-mapped
// slot. The constants are the 64-bit finalizer from MurmurHash3.
//
//pflint:hotpath
func pcIndex(pc uint64) uint64 {
	pc ^= pc >> 33
	pc *= 0xff51afd7ed558ccd
	pc ^= pc >> 33
	return pc
}

// Berti is a latency-aware local-delta prefetcher in the style of the
// Berti proposal: a per-PC history table records the recent (line,
// cycle) footprint of each instruction, a reuse-latency table measures
// how long a miss takes to come back, and candidate deltas earn
// confidence only when a prefetch issued that far ahead would have
// arrived in time. A small shadow table remembers issued prefetches so
// later demand uses can be classified useful/timely.
//
// All three tables are log2-sized, direct-mapped, and allocation-free
// on the observe path.
type Berti struct {
	hist    []bertiEntry
	histMsk uint64

	latency latencyTable
	shadow  shadowTable

	// latEst is the integer-EWMA estimate of miss latency in cycles,
	// seeded so early timeliness checks are conservative.
	latEst uint32

	Triggers uint64 // candidates emitted
	Useful   uint64 // issued prefetches later demanded
	Timely   uint64 // useful prefetches that had arrived by the demand
}

const (
	bertiHistLen      = 8   // (line, cycle) pairs kept per PC
	bertiCandLen      = 8   // delta candidates tracked per PC
	bertiConfThresh   = 32  // confidence needed before a delta prefetches
	bertiConfMax      = 255 // 8-bit saturating counters; halved on saturation
	bertiTimelyBonus  = 4   // confidence gain for a timely delta
	bertiLateBonus    = 2   // confidence gain for a covering-but-late delta
	bertiSeedLatency  = 64  // initial latEst before any miss is measured
	bertiLatencyShift = 3   // EWMA weight: latEst += (observed-latEst)>>3
)

// bertiEntry is one per-PC record: a ring of recent accesses plus the
// delta candidates scored against them. Candidates are bit-packed as
// uint32(uint16(delta))<<8 | conf in the SNIPPETS idiom.
type bertiEntry struct {
	tag    uint64
	head   uint8
	count  uint8
	lines  [bertiHistLen]uint64
	cycles [bertiHistLen]uint64
	cand   [bertiCandLen]uint32
}

// latencyTable maps in-flight miss lines to the cycle the miss was
// seen, so the next touch of the line yields its reuse latency.
type latencyTable struct {
	tags   []uint64
	cycles []uint32
	mask   uint64
}

func newLatencyTable(log2 int) latencyTable {
	n := 1 << log2
	return latencyTable{tags: make([]uint64, n), cycles: make([]uint32, n), mask: uint64(n - 1)}
}

// insert records a miss for line at cycle, evicting whatever shared its
// direct-mapped slot.
//
//pflint:hotpath
func (t *latencyTable) insert(line, cycle uint64) {
	idx := line & t.mask
	t.tags[idx] = line
	t.cycles[idx] = uint32(cycle)
}

// take looks up line and, on a hit, removes it and returns the elapsed
// cycles since insert. The subtraction is uint32 so it stays correct
// across cycle-counter wraparound.
//
//pflint:hotpath
func (t *latencyTable) take(line, now uint64) (uint32, bool) {
	idx := line & t.mask
	if t.tags[idx] != line || t.tags[idx] == 0 {
		return 0, false
	}
	t.tags[idx] = 0
	return uint32(now) - t.cycles[idx], true
}

// shadowTable remembers recently issued prefetches: the target line and
// the issue cycle. The cycle is kept at 32 bits so elapsed-time
// classification stays correct for entries that sit far longer than the
// 2^16-cycle horizon a packed 16-bit stamp would allow.
type shadowTable struct {
	tags   []uint64
	cycles []uint32
	mask   uint64
}

func newShadowTable(log2 int) shadowTable {
	n := 1 << log2
	return shadowTable{tags: make([]uint64, n), cycles: make([]uint32, n), mask: uint64(n - 1)}
}

// NewBerti builds a Berti prefetcher with 2^historyLog2 PC entries, a
// 2^latencyLog2 reuse-latency table, and a 2^shadowLog2 shadow table.
func NewBerti(historyLog2, latencyLog2, shadowLog2 int) (*Berti, error) {
	for _, l := range [3]int{historyLog2, latencyLog2, shadowLog2} {
		if l < 1 || l > 30 {
			return nil, fmt.Errorf("prefetch: berti log2 budget must be in [1,30], got %d", l)
		}
	}
	n := 1 << historyLog2
	return &Berti{
		hist:    make([]bertiEntry, n),
		histMsk: uint64(n - 1),
		latency: newLatencyTable(latencyLog2),
		shadow:  newShadowTable(shadowLog2),
		latEst:  bertiSeedLatency,
	}, nil
}

// Name implements Prefetcher.
func (b *Berti) Name() string { return "berti" }

// Observe implements Prefetcher.
func (b *Berti) Observe(ev Event, emit func(Candidate)) {
	now := ev.Cycle

	// Close the latency loop: a touch of a line whose miss is still in
	// the latency table yields one reuse-latency sample. The EWMA step
	// must be signed: a sample below the estimate makes (lat - latEst)
	// negative, and the unsigned subtract-and-logical-shift form wraps
	// it to ~2^29, destroying the estimate.
	if lat, ok := b.latency.take(ev.LineAddr, now); ok {
		b.latEst = uint32(int64(b.latEst) + (int64(lat)-int64(b.latEst))>>bertiLatencyShift)
	}
	if !ev.L1Hit && !ev.L2Hit {
		b.latency.insert(ev.LineAddr, now)
	}

	// Classify issued prefetches the moment demand touches them.
	sIdx := ev.LineAddr & b.shadow.mask
	if b.shadow.tags[sIdx] == ev.LineAddr {
		b.shadow.tags[sIdx] = 0
		b.Useful++
		// uint32 subtraction stays correct across cycle-counter
		// wraparound, exactly like latencyTable.take.
		elapsed := uint32(now) - b.shadow.cycles[sIdx]
		if elapsed >= b.latEst {
			b.Timely++
		}
	}

	// Per-PC training and prediction.
	e := &b.hist[pcIndex(ev.PC)&b.histMsk]
	if e.tag != ev.PC {
		*e = bertiEntry{tag: ev.PC}
	}
	b.train(e, ev.LineAddr, now)

	// Push the access into the entry's history ring.
	e.lines[e.head] = ev.LineAddr
	e.cycles[e.head] = now
	e.head = (e.head + 1) % bertiHistLen
	if e.count < bertiHistLen {
		e.count++
	}

	if delta, ok := b.bestDelta(e); ok {
		next := int64(ev.LineAddr) + int64(delta)
		if next > 0 {
			b.Triggers++
			tgt := uint64(next)
			i := tgt & b.shadow.mask
			b.shadow.tags[i] = tgt
			b.shadow.cycles[i] = uint32(now)
			emit(Candidate{LineAddr: tgt, TriggerPC: ev.PC, Source: core.SrcBerti})
		}
	}
}

// train scores the deltas from every recorded prior access of this PC
// to the current line. A delta is timely when a prefetch issued at the
// prior access would have arrived (prior cycle + latency estimate) by
// now; timely deltas earn more confidence. On saturation every
// candidate is halved, so stale deltas age out.
//
//pflint:hotpath
func (b *Berti) train(e *bertiEntry, line, now uint64) {
	for j := uint8(0); j < e.count; j++ {
		slot := (e.head + bertiHistLen - 1 - j) % bertiHistLen
		delta := int64(line) - int64(e.lines[slot])
		if delta == 0 || delta < -32768 || delta > 32767 {
			continue
		}
		bonus := uint32(bertiLateBonus)
		if e.cycles[slot]+uint64(b.latEst) <= now {
			bonus = bertiTimelyBonus
		}
		packed := uint32(uint16(int16(delta))) << 8

		// Find the candidate tracking this delta, or the weakest slot.
		match := -1
		weakest := 0
		for k := 0; k < bertiCandLen; k++ {
			if e.cand[k]&^0xff == packed && e.cand[k] != 0 {
				match = k
				break
			}
			if e.cand[k]&0xff < e.cand[weakest]&0xff {
				weakest = k
			}
		}
		if match < 0 {
			// Established candidates are protected: a novel delta only
			// decays the weakest slot, and replaces it once it reaches
			// zero. Without this, irregular access patterns churn the
			// slots faster than any delta can reach the issue threshold.
			if conf := e.cand[weakest] & 0xff; conf > 0 {
				e.cand[weakest] = e.cand[weakest]&^0xff | (conf - 1)
			} else {
				e.cand[weakest] = packed | bonus
			}
			continue
		}
		conf := e.cand[match]&0xff + bonus
		if conf >= bertiConfMax {
			for k := 0; k < bertiCandLen; k++ {
				e.cand[k] = e.cand[k]&^0xff | (e.cand[k]&0xff)>>1
			}
			conf = e.cand[match]&0xff + bonus
		}
		e.cand[match] = packed | conf
	}
}

// bestDelta returns the highest-confidence delta at or above the issue
// threshold, first index winning ties so selection is deterministic.
//
//pflint:hotpath
func (b *Berti) bestDelta(e *bertiEntry) (int16, bool) {
	best := -1
	var bestConf uint32
	for k := 0; k < bertiCandLen; k++ {
		conf := e.cand[k] & 0xff
		if conf >= bertiConfThresh && conf > bestConf {
			best, bestConf = k, conf
		}
	}
	if best < 0 {
		return 0, false
	}
	return int16(uint16(e.cand[best] >> 8)), true
}
