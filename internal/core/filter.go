// Package core implements the paper's contribution: the hardware cache
// pollution filter for aggressive prefetches.
//
// The filter sits between the prefetch generators (hardware prefetchers
// and software prefetch instructions) and the L1 data cache. For every
// in-flight prefetch it predicts — from a small direct-indexed history
// table of 2-bit saturating counters — whether the prefetched line would
// be referenced before eviction ("good") or never referenced ("bad"), and
// drops predicted-bad prefetches before they consume a cache port, bus
// bandwidth, or an L1 frame.
//
// Two indexing schemes are provided, matching §4.1 and §4.2:
//
//   - PA-based: the table is indexed by the prefetched cache-line address.
//   - PC-based: the table is indexed by the PC of the instruction that
//     triggered the prefetch.
//
// Training happens on L1 eviction: when a line with PIB set is evicted,
// its RIB (was it ever demand-referenced?) increments or decrements the
// counter its key maps to. Counters start weakly good so that first-touch
// prefetches are issued (§5.3 relies on this).
package core

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/predictor"
)

// Source identifies the prefetch generator that proposed a prefetch. It
// is carried through the filter request, the cache line's metadata, and
// the eviction-time feedback so feature-based filters (the perceptron
// backend in internal/filter) can learn per-generator behaviour.
type Source uint8

// Prefetch generators known to the simulator.
const (
	SrcOther       Source = iota // unknown / custom generator
	SrcNSP                       // tagged next-sequence prefetching
	SrcSDP                       // shadow-directory prefetching
	SrcStride                    // reference-prediction-table stride
	SrcCorrelation               // miss-pair correlation
	SrcSoftware                  // compiler-inserted prefetch instruction
	SrcBerti                     // Berti-style latency-aware local-delta
	SrcGHB                       // GHB/PC-delta correlation
	SrcINextLine                 // I-side next-line/fetch-directed baseline
	SrcIMANA                     // I-side MANA-lite spatial-region prefetcher
)

// sourceNames are the generators' registered names: the keys of
// stats.Run.BySource and the "src" field of trace events.
var sourceNames = [...]string{
	SrcOther:       "other",
	SrcNSP:         "nsp",
	SrcSDP:         "sdp",
	SrcStride:      "stride",
	SrcCorrelation: "corr",
	SrcSoftware:    "sw",
	SrcBerti:       "berti",
	SrcGHB:         "ghb",
	SrcINextLine:   "nextline",
	SrcIMANA:       "mana",
}

// String returns the generator's registered name.
func (s Source) String() string {
	if int(s) < len(sourceNames) {
		return sourceNames[s]
	}
	return sourceNames[SrcOther]
}

// Request describes an in-flight prefetch presented to the filter before
// it is enqueued toward the L1.
type Request struct {
	// LineAddr is the cache-line address of the prefetched data (byte
	// address with the line-offset bits stripped).
	LineAddr uint64
	// TriggerPC is the PC of the instruction that caused the prefetch: the
	// software prefetch instruction itself, or the memory instruction whose
	// cache access triggered the hardware prefetcher.
	TriggerPC uint64
	// Software marks compiler-inserted prefetch instructions.
	Software bool
	// Source identifies the generator that proposed the prefetch.
	Source Source
}

// Feedback is the eviction-time training signal: the identity of a
// prefetched line leaving the L1 and whether it was ever referenced.
type Feedback struct {
	LineAddr   uint64
	TriggerPC  uint64
	Referenced bool   // the line's RIB at eviction
	Source     Source // generator that proposed the prefetch
}

// Stats counts filter activity.
type Stats struct {
	Queries   uint64 // prefetches presented
	Rejected  uint64 // prefetches dropped
	TrainGood uint64 // feedback with Referenced=true
	TrainBad  uint64 // feedback with Referenced=false
}

// RejectRate returns rejected/queries (0 when idle).
func (s Stats) RejectRate() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.Rejected) / float64(s.Queries)
}

// Filter is the pollution-filter interface the simulator consults.
//
// Allow is called once per candidate prefetch; returning false terminates
// the prefetch (it never reaches the prefetch queue). Train is called once
// per evicted prefetched line.
type Filter interface {
	Allow(req Request) bool
	Train(fb Feedback)
	Name() string
	Stats() Stats
}

// Null is the no-filtering baseline: every prefetch is allowed. It still
// counts training feedback so good/bad statistics are comparable.
type Null struct{ stats Stats }

// NewNull returns the pass-through filter.
func NewNull() *Null { return &Null{} }

// Allow implements Filter; it always returns true.
func (n *Null) Allow(Request) bool {
	n.stats.Queries++
	return true
}

// Train implements Filter; it only counts.
func (n *Null) Train(fb Feedback) {
	if fb.Referenced {
		n.stats.TrainGood++
	} else {
		n.stats.TrainBad++
	}
}

// Name implements Filter.
func (n *Null) Name() string { return "none" }

// Predict implements the side-effect-free prediction used by tournament
// selectors: the pass-through filter always predicts "good".
func (n *Null) Predict(Request) bool { return true }

// ResetStats zeroes the counters (warmup boundary).
func (n *Null) ResetStats() { n.stats = Stats{} }

// Stats implements Filter.
func (n *Null) Stats() Stats { return n.stats }

// IndexMode selects how a key maps to a history-table entry.
type IndexMode int

// Indexing schemes. The paper uses direct indexing (low bits of the key);
// multiplicative hashing is provided as a design-space option and is used
// by the aliasing ablation benchmark.
const (
	IndexDirect IndexMode = iota
	IndexHash
)

// HistoryTable is the filter's prediction state: a power-of-two array of
// 2-bit saturating counters (Table 1 default: 4096 entries = 1KB). The
// counter storage is predictor.CounterTable — the same fabric behind the
// bimodal branch predictor.
type HistoryTable struct {
	counters  *predictor.CounterTable
	mask      uint64
	mode      IndexMode
	shift     uint // for multiplicative hashing
	threshold predictor.SatCounter
}

// NewHistoryTable allocates a table with the given power-of-two entry
// count. All counters start at initial; predictions are "good" when the
// counter is >= threshold.
func NewHistoryTable(entries int, initial, threshold uint8, mode IndexMode) (*HistoryTable, error) {
	if initial > 3 || threshold > 3 {
		return nil, fmt.Errorf("core: initial (%d) and threshold (%d) must be 2-bit values", initial, threshold)
	}
	ct, err := predictor.NewCounterTable(entries, predictor.SatCounter(initial))
	if err != nil {
		return nil, fmt.Errorf("core: history table: %w", err)
	}
	t := &HistoryTable{
		counters:  ct,
		mask:      uint64(entries - 1),
		mode:      mode,
		threshold: predictor.SatCounter(threshold),
	}
	bits := uint(0)
	for v := entries; v > 1; v >>= 1 {
		bits++
	}
	t.shift = 64 - bits
	return t, nil
}

// Index maps a key to its table entry.
func (t *HistoryTable) Index(key uint64) uint64 {
	if t.mode == IndexHash {
		return (key * 0x9e3779b97f4a7c15) >> t.shift
	}
	return key & t.mask
}

// Predict reports whether the counter for key predicts a good prefetch.
func (t *HistoryTable) Predict(key uint64) bool {
	return t.counters.At(t.Index(key)) >= t.threshold
}

// Update trains the counter for key: good increments, bad decrements.
func (t *HistoryTable) Update(key uint64, good bool) {
	t.counters.Update(t.Index(key), good)
}

// Counter exposes the raw counter for key (tests and introspection).
func (t *HistoryTable) Counter(key uint64) predictor.SatCounter {
	return t.counters.At(t.Index(key))
}

// Entries returns the table length.
func (t *HistoryTable) Entries() int { return t.counters.Len() }

// SizeBytes returns the storage cost: 2 bits per entry.
func (t *HistoryTable) SizeBytes() int { return t.counters.Len() / 4 }

// KeyFunc extracts the history-table key from a prefetch identity.
type KeyFunc func(lineAddr, triggerPC uint64) uint64

// PAKey keys on the prefetched cache-line address (§4.1).
func PAKey(lineAddr, _ uint64) uint64 { return lineAddr }

// PCKey keys on the trigger PC, offset by the instruction size (§4.2).
func PCKey(_, triggerPC uint64) uint64 { return triggerPC >> 2 }

// TableFilter is the history-table filter with a pluggable key function;
// PA- and PC-based filters are the two instantiations.
type TableFilter struct {
	table *HistoryTable
	key   KeyFunc
	name  string
	stats Stats

	// probation, when positive, lets every probation-th rejected prefetch
	// through anyway. The paper's filter is purely absorbing: a rejected
	// key generates no eviction feedback and can only recover through
	// aliasing. Probation keeps a trickle of feedback alive so the table
	// can un-learn a stale rejection after the working set changes — the
	// natural fix for the weakness the adaptivity experiment exposes.
	probation int
	// ProbeAllows counts rejections converted to probationary issues.
	ProbeAllows uint64
}

// SetProbation enables probationary sampling: every n-th rejected
// prefetch issues anyway (n <= 0 disables, the paper's behaviour).
func (f *TableFilter) SetProbation(n int) { f.probation = n }

// NewPA builds the Per-Address filter of §4.1.
func NewPA(entries int, initial, threshold uint8, mode IndexMode) (*TableFilter, error) {
	t, err := NewHistoryTable(entries, initial, threshold, mode)
	if err != nil {
		return nil, err
	}
	return &TableFilter{table: t, key: PAKey, name: "pa"}, nil
}

// NewPC builds the Program-Counter filter of §4.2.
func NewPC(entries int, initial, threshold uint8, mode IndexMode) (*TableFilter, error) {
	t, err := NewHistoryTable(entries, initial, threshold, mode)
	if err != nil {
		return nil, err
	}
	return &TableFilter{table: t, key: PCKey, name: "pc"}, nil
}

// NewTableFilter builds a filter with a custom key function, for design-
// space exploration (e.g. XOR of PA and PC).
func NewTableFilter(name string, key KeyFunc, entries int, initial, threshold uint8, mode IndexMode) (*TableFilter, error) {
	if key == nil {
		return nil, fmt.Errorf("core: key function must not be nil")
	}
	t, err := NewHistoryTable(entries, initial, threshold, mode)
	if err != nil {
		return nil, err
	}
	return &TableFilter{table: t, key: key, name: name}, nil
}

// Predict reports the table's current prediction for req without
// touching any statistics — the side-effect-free probe tournament
// selectors use to consult a backend they may not pick.
//
//pflint:hotpath
func (f *TableFilter) Predict(req Request) bool {
	return f.table.Predict(f.key(req.LineAddr, req.TriggerPC))
}

// Allow implements Filter.
//
//pflint:hotpath
func (f *TableFilter) Allow(req Request) bool {
	f.stats.Queries++
	if f.table.Predict(f.key(req.LineAddr, req.TriggerPC)) {
		return true
	}
	f.stats.Rejected++
	if f.probation > 0 && f.stats.Rejected%uint64(f.probation) == 0 {
		f.ProbeAllows++
		return true
	}
	return false
}

// Train implements Filter.
//
//pflint:hotpath
func (f *TableFilter) Train(fb Feedback) {
	if fb.Referenced {
		f.stats.TrainGood++
	} else {
		f.stats.TrainBad++
	}
	f.table.Update(f.key(fb.LineAddr, fb.TriggerPC), fb.Referenced)
}

// Name implements Filter.
func (f *TableFilter) Name() string { return f.name }

// ResetStats zeroes the counters while keeping the history table warm
// (warmup boundary).
func (f *TableFilter) ResetStats() { f.stats = Stats{} }

// Stats implements Filter.
func (f *TableFilter) Stats() Stats { return f.stats }

// Table exposes the underlying history table (introspection and tests).
func (f *TableFilter) Table() *HistoryTable { return f.table }

// CounterDistribution returns how many table entries currently sit at
// each 2-bit counter value — the filter's learned state in one glance
// (a table stuck at 0 has absorbed its working set; a table at the
// initial value has learned nothing).
func (t *HistoryTable) CounterDistribution() [4]int {
	return t.counters.Distribution()
}

// MetricsDumper is implemented by filters that can export their state
// into a metrics registry; the simulator type-asserts for it at the end
// of an instrumented run.
type MetricsDumper interface {
	DumpMetrics(reg *metrics.Registry, prefix string)
}

// DumpMetrics exports filter activity and the history-table counter
// distribution under prefix ("sim.filter" -> "sim.filter.queries", ...,
// "sim.filter.table.counter3"). No-op on a nil registry.
func (f *TableFilter) DumpMetrics(reg *metrics.Registry, prefix string) {
	if reg == nil {
		return
	}
	dumpFilterStats(reg, prefix, f.stats)
	reg.Counter(prefix + ".probe_allows").Set(f.ProbeAllows)
	dist := f.table.CounterDistribution()
	for v, n := range dist {
		reg.Counter(fmt.Sprintf("%s.table.counter%d", prefix, v)).Set(uint64(n))
	}
}

// DumpMetrics exports the pass-through filter's training counts.
func (n *Null) DumpMetrics(reg *metrics.Registry, prefix string) {
	if reg == nil {
		return
	}
	dumpFilterStats(reg, prefix, n.stats)
}

// DumpMetrics exports the adaptive wrapper's own stats plus its inner
// table filter's state under prefix+".inner".
func (a *Adaptive) DumpMetrics(reg *metrics.Registry, prefix string) {
	if reg == nil {
		return
	}
	dumpFilterStats(reg, prefix, a.stats)
	engaged := uint64(0)
	if a.engaged {
		engaged = 1
	}
	reg.Counter(prefix + ".engaged").Set(engaged)
	a.inner.DumpMetrics(reg, prefix+".inner")
}

// dumpFilterStats writes the common Stats block.
func dumpFilterStats(reg *metrics.Registry, prefix string, s Stats) {
	reg.Counter(prefix + ".queries").Set(s.Queries)
	reg.Counter(prefix + ".rejected").Set(s.Rejected)
	reg.Counter(prefix + ".train_good").Set(s.TrainGood)
	reg.Counter(prefix + ".train_bad").Set(s.TrainBad)
}
