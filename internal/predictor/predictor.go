// Package predictor implements the branch prediction hardware of the
// simulated core and the 2-bit saturating counter shared with the pollution
// filter's history table.
//
// Table 1 of the paper specifies a 2048-entry bimodal predictor and a
// 4-way, 4096-set branch target buffer. The counter semantics are the
// classic Smith counter: increment on taken, decrement on not-taken,
// saturating at [0, 3]; values >= 2 predict taken.
package predictor

import (
	"fmt"
	"math/bits"

	"repro/internal/slab"
)

// SatCounter is a 2-bit saturating counter. The zero value is a strongly
// not-taken counter.
type SatCounter uint8

// Counter bounds and the conventional state names.
const (
	StrongNotTaken SatCounter = 0
	WeakNotTaken   SatCounter = 1
	WeakTaken      SatCounter = 2
	StrongTaken    SatCounter = 3
	counterMax     SatCounter = 3
)

// Inc returns the counter incremented with saturation.
func (c SatCounter) Inc() SatCounter {
	if c >= counterMax {
		return counterMax
	}
	return c + 1
}

// Dec returns the counter decremented with saturation.
func (c SatCounter) Dec() SatCounter {
	if c == 0 {
		return 0
	}
	return c - 1
}

// Taken reports the counter's prediction with the standard >= 2 threshold.
func (c SatCounter) Taken() bool { return c >= WeakTaken }

// Update returns the counter trained toward the outcome.
func (c SatCounter) Update(taken bool) SatCounter {
	if taken {
		return c.Inc()
	}
	return c.Dec()
}

// Valid reports whether the counter holds a representable 2-bit value.
func (c SatCounter) Valid() bool { return c <= counterMax }

// CounterTable is the shared table-of-2-bit-counters fabric: a
// power-of-two array of SatCounters behind an index mask. The bimodal
// branch predictor and the pollution filter's history table are both
// instantiations of this one structure (the paper's filter deliberately
// reuses branch-predictor hardware idioms, and so does the code).
type CounterTable struct {
	counters []SatCounter
	mask     uint64
}

// NewCounterTable allocates a table with the given power-of-two entry
// count, every counter starting at initial.
func NewCounterTable(entries int, initial SatCounter) (*CounterTable, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("predictor: counter table entries must be a positive power of two, got %d", entries)
	}
	if !initial.Valid() {
		return nil, fmt.Errorf("predictor: initial counter must be a 2-bit value, got %d", initial)
	}
	t := &CounterTable{counters: make([]SatCounter, entries), mask: uint64(entries - 1)}
	for i := range t.counters {
		t.counters[i] = initial
	}
	return t, nil
}

// At returns the counter at idx (masked).
func (t *CounterTable) At(idx uint64) SatCounter { return t.counters[idx&t.mask] }

// Update trains the counter at idx (masked) toward the outcome.
func (t *CounterTable) Update(idx uint64, up bool) {
	i := idx & t.mask
	t.counters[i] = t.counters[i].Update(up)
}

// Len returns the table length.
func (t *CounterTable) Len() int { return len(t.counters) }

// Distribution returns how many entries sit at each 2-bit counter value.
func (t *CounterTable) Distribution() (dist [4]int) {
	for _, c := range t.counters {
		dist[c&3]++
	}
	return dist
}

// Bimodal is a PC-indexed table of 2-bit counters.
type Bimodal struct {
	table *CounterTable
}

// NewBimodal allocates a predictor with the given power-of-two entry count.
// Counters start weakly taken, the usual reset state for loop-heavy code.
func NewBimodal(entries int) (*Bimodal, error) {
	t, err := NewCounterTable(entries, WeakTaken)
	if err != nil {
		return nil, fmt.Errorf("predictor: bimodal: %w", err)
	}
	return &Bimodal{table: t}, nil
}

func (b *Bimodal) index(pc uint64) uint64 { return pc >> 2 }

// Predict returns the predicted direction for the branch at pc.
func (b *Bimodal) Predict(pc uint64) bool { return b.table.At(b.index(pc)).Taken() }

// Update trains the counter for pc toward the resolved direction.
func (b *Bimodal) Update(pc uint64, taken bool) {
	b.table.Update(b.index(pc), taken)
}

// Entries returns the table length.
func (b *Bimodal) Entries() int { return b.table.Len() }

// btbEntry is one BTB way: a stored tag (0 when empty) and the cached
// target.
type btbEntry struct {
	tag    uint64
	target uint64
	lru    uint64 // larger = more recently used
}

// A way stores its tag complemented, so a zeroed array is an empty BTB.
// A real tag is pc>>2>>setBits, never all ones, so no stored tag is 0.
func storedTag(tag uint64) uint64 { return ^tag }

// wayPool recycles BTB way arrays: the Table 1 BTB is 16,384 ways.
var wayPool slab.Pool[btbEntry]

// BTB is a set-associative branch target buffer with true-LRU replacement.
type BTB struct {
	ways     []btbEntry // set-major: ways of set s at [s*assoc, (s+1)*assoc)
	assoc    int
	setMask  uint64
	tagShift uint // set-index bits above the instruction offset
	tick     uint64
}

// NewBTB allocates a BTB with the given power-of-two set count and
// associativity.
func NewBTB(sets, assoc int) (*BTB, error) {
	if sets <= 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("predictor: BTB sets must be a positive power of two, got %d", sets)
	}
	if assoc <= 0 {
		return nil, fmt.Errorf("predictor: BTB associativity must be positive, got %d", assoc)
	}
	return &BTB{ways: wayPool.Get(sets * assoc), assoc: assoc, setMask: uint64(sets - 1),
		tagShift: uint(bits.TrailingZeros(uint(sets)))}, nil
}

// Release hands the way array back for the next BTB of the same size.
// The BTB must not be used afterwards.
func (b *BTB) Release() {
	wayPool.Put(b.ways)
	b.ways = nil
}

// set returns pc's set of ways and its stored tag.
func (b *BTB) set(pc uint64) (ways []btbEntry, tag uint64) {
	idx := pc >> 2
	base := int(idx&b.setMask) * b.assoc
	return b.ways[base : base+b.assoc], storedTag(idx >> b.tagShift)
}

// Lookup returns the cached target for pc, if present.
//
//pflint:hotpath
func (b *BTB) Lookup(pc uint64) (target uint64, ok bool) {
	ways, tag := b.set(pc)
	for i := range ways {
		if ways[i].tag == tag {
			b.tick++
			ways[i].lru = b.tick
			return ways[i].target, true
		}
	}
	return 0, false
}

// Insert records the resolved target for a taken branch at pc, evicting the
// least-recently-used way on conflict.
//
//pflint:hotpath
func (b *BTB) Insert(pc, target uint64) {
	ways, tag := b.set(pc)
	b.tick++
	victim := 0
	for i := range ways {
		if ways[i].tag == tag {
			ways[i].target = target
			ways[i].lru = b.tick
			return
		}
		if ways[i].tag == 0 {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	ways[victim] = btbEntry{tag: tag, target: target, lru: b.tick}
}

// Unit couples a bimodal predictor with a BTB and tracks accuracy, giving
// the CPU model a single prediction interface.
type Unit struct {
	Bimodal *Bimodal
	BTB     *BTB

	Predictions    uint64
	Mispredictions uint64
}

// NewUnit builds the Table 1 branch unit.
func NewUnit(bimodalEntries, btbSets, btbAssoc int) (*Unit, error) {
	bm, err := NewBimodal(bimodalEntries)
	if err != nil {
		return nil, err
	}
	btb, err := NewBTB(btbSets, btbAssoc)
	if err != nil {
		return nil, err
	}
	return &Unit{Bimodal: bm, BTB: btb}, nil
}

// Resolve runs the full predict-then-train flow for a resolved branch and
// reports whether the prediction was correct. A taken prediction with a BTB
// miss or a wrong cached target counts as a misprediction, matching
// fetch-redirect behaviour.
//
//pflint:hotpath
func (u *Unit) Resolve(pc uint64, taken bool, target uint64) (correct bool) {
	predTaken := u.Bimodal.Predict(pc)
	correct = predTaken == taken
	if correct && taken {
		cached, ok := u.BTB.Lookup(pc)
		if !ok || cached != target {
			correct = false
		}
	}
	u.Bimodal.Update(pc, taken)
	if taken {
		u.BTB.Insert(pc, target)
	}
	u.Predictions++
	if !correct {
		u.Mispredictions++
	}
	return correct
}

// Accuracy returns the fraction of correct predictions, or 1 when no
// branches have resolved.
func (u *Unit) Accuracy() float64 {
	if u.Predictions == 0 {
		return 1
	}
	return 1 - float64(u.Mispredictions)/float64(u.Predictions)
}
