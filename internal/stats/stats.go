// Package stats defines the measurement model of the reproduction: the
// good/bad prefetch classification of §3, traffic accounting for Figure 2,
// and the derived metrics (IPC, bad/good ratio, normalized reductions) the
// paper's figures report.
package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/taxonomy"
)

// Prefetches classifies completed prefetches. A prefetch is good iff the
// prefetched line was demand-referenced between fill and eviction; it is
// bad iff it was never referenced in that window (§3). Filtered counts
// prefetches dropped by the pollution filter; squashed and overflowed
// prefetches died in the queue machinery and never touched the cache.
type Prefetches struct {
	Issued       uint64 // entered the L1/prefetch-buffer fill path
	Good         uint64 // referenced before eviction (incl. still-resident referenced lines at end of run)
	Bad          uint64 // evicted (or resident at end) without reference
	Filtered     uint64 // dropped by the pollution filter
	Squashed     uint64 // duplicate squashes (already in cache/queue/in flight)
	Overflow     uint64 // dropped on a full prefetch queue
	ResidentGood uint64 // subset of Good still resident at end of run
	ResidentBad  uint64 // subset of Bad still resident at end of run
}

// Classified returns Good + Bad.
func (p Prefetches) Classified() uint64 { return p.Good + p.Bad }

// BadGoodRatio returns Bad/Good; when Good is zero it returns Bad (the
// natural continuation: ratio per single hypothetical good prefetch) to
// keep the metric finite for plotting, matching how we aggregate means.
func (p Prefetches) BadGoodRatio() float64 {
	if p.Good == 0 {
		return float64(p.Bad)
	}
	return float64(p.Bad) / float64(p.Good)
}

// GoodFraction returns Good / (Good + Bad), or 0 when nothing classified.
func (p Prefetches) GoodFraction() float64 {
	if p.Classified() == 0 {
		return 0
	}
	return float64(p.Good) / float64(p.Classified())
}

// Coverage returns Good / (Good + misses): the share of the misses the
// cache would have taken that prefetching hid, given the demand misses
// it still took. It is 0 when both are zero.
func (p Prefetches) Coverage(misses uint64) float64 {
	if p.Good+misses == 0 {
		return 0
	}
	return float64(p.Good) / float64(p.Good+misses)
}

// Traffic tracks L1 accesses by source, for Figure 2's split.
type Traffic struct {
	DemandAccesses   uint64 // loads + stores presented to the L1
	PrefetchAccesses uint64 // prefetch fills presented to the L1 (or buffer)
	L2Accesses       uint64
	MemAccesses      uint64
	PrefetchL2       uint64 // prefetch requests reaching the L2
	PrefetchMem      uint64 // prefetch requests reaching memory
}

// PrefetchRatio returns prefetch/demand L1 traffic (Figure 2's metric).
func (t Traffic) PrefetchRatio() float64 {
	if t.DemandAccesses == 0 {
		return 0
	}
	return float64(t.PrefetchAccesses) / float64(t.DemandAccesses)
}

// Run aggregates everything a single simulation produces.
type Run struct {
	Benchmark string
	Filter    string

	Instructions uint64
	Cycles       uint64

	Prefetches Prefetches
	Traffic    Traffic

	L1DemandAccesses uint64
	L1DemandMisses   uint64
	L2DemandAccesses uint64
	L2DemandMisses   uint64

	BranchPredictions    uint64
	BranchMispredictions uint64

	// Port contention.
	PortConflictCycles uint64 // demand accesses delayed by busy ports
	PrefetchPortWaits  uint64 // prefetch issue attempts that found no port

	// Filter activity (copied from the filter's own stats).
	FilterQueries  uint64
	FilterRejected uint64

	// Per-source prefetch issue counts (nsp/sdp/stride/sw).
	BySource map[string]uint64

	// Frontend holds the I-side counters when the run modelled the
	// front end (config.Config.Frontend); nil otherwise. The pointer is
	// omitted from the JSON encoding when nil so D-side-only runs keep
	// their canonical encoding — and therefore the fabric's pinned
	// sweep fingerprints — byte-identical.
	Frontend *Frontend `json:",omitempty"`

	// Taxonomy holds the full Srinivasan prefetch classification when the
	// run was instrumented with Options.Taxonomy; nil otherwise.
	Taxonomy *taxonomy.Counts
}

// Frontend aggregates the I-side counters: the fetch-block stream the
// front end presented to the L1I, the stall cycles fetch misses cost,
// and the instruction-prefetch outcome counters (classified at L1I
// eviction time exactly like the D-side's).
type Frontend struct {
	// IPrefetcher names the instruction-prefetch backend ("none" when
	// only the L1I was modelled).
	IPrefetcher string
	// FetchBlocks counts fetch-block transitions presented to the L1I;
	// same-block fetches are absorbed by the fetch unit.
	FetchBlocks uint64
	// FetchMisses counts fetch blocks that missed the L1I.
	FetchMisses uint64
	// FetchStallCycles counts cycles the front end stalled waiting for
	// an instruction block.
	FetchStallCycles uint64
	// Prefetches are the instruction-prefetch outcome counters.
	Prefetches Prefetches
}

// FetchMissRate returns L1I misses per fetch block.
func (f Frontend) FetchMissRate() float64 {
	if f.FetchBlocks == 0 {
		return 0
	}
	return float64(f.FetchMisses) / float64(f.FetchBlocks)
}

// IPC returns instructions per cycle.
func (r Run) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// L1MissRate returns demand miss rate at the L1.
func (r Run) L1MissRate() float64 {
	if r.L1DemandAccesses == 0 {
		return 0
	}
	return float64(r.L1DemandMisses) / float64(r.L1DemandAccesses)
}

// L2MissRate returns demand miss rate at the L2 (local: misses per L2
// demand access), matching Table 2's convention.
func (r Run) L2MissRate() float64 {
	if r.L2DemandAccesses == 0 {
		return 0
	}
	return float64(r.L2DemandMisses) / float64(r.L2DemandAccesses)
}

// String summarizes the run for logs.
func (r Run) String() string {
	return fmt.Sprintf("%s/%s: IPC=%.3f good=%d bad=%d filtered=%d L1miss=%.4f",
		r.Benchmark, r.Filter, r.IPC(), r.Prefetches.Good, r.Prefetches.Bad,
		r.Prefetches.Filtered, r.L1MissRate())
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Speedup returns (after-before)/before, the relative improvement the
// paper's IPC comparisons quote. A zero baseline yields 0.
func Speedup(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return (after - before) / before
}

// Reduction returns 1 - after/before: the fractional reduction the
// paper quotes for bad prefetches and traffic. A zero baseline yields 0.
func Reduction(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return 1 - after/before
}

// SafeRatio returns num/den, or 0 when den is 0.
func SafeRatio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// WriteRunSet writes a keyed result set as "key\nrunJSON\n" lines in
// sorted key order: the one encoding behind the harness's pinned
// fingerprints and the fabric's result-set fingerprint. Write errors are
// dropped: the callers write to a hash or a bytes.Buffer, which never
// fail.
func WriteRunSet(w io.Writer, runs map[string]Run) {
	keys := make([]string, 0, len(runs))
	for k := range runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, err := json.Marshal(runs[k])
		if err != nil {
			// Run is plain data; Marshal cannot fail in practice.
			b = []byte("marshal error: " + err.Error())
		}
		_, _ = fmt.Fprintf(w, "%s\n%s\n", k, b)
	}
}
