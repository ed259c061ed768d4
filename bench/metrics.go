package bench

import (
	"math"
	"sort"
)

// metricSpec names one printed metric and its unit. BENCHMARK.json at the
// repository root declares the same names and units, with each metric's
// direction and regression bound; TestSmoke keeps the two in step.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics an untraced run prints: what a user of the
// simulator sees. Host time everywhere; simulated statistics are only
// checked, never reported here.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"mips_p50", "Minstr/s"},
	{"cell_ms_p50", "ms"},
	{"cell_ms_p90", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run prints. Every time-valued one is
// measured on every workload; a layer a workload does not exercise reads
// 0 in its counts and ratios.
var perLayer = []metricSpec{
	{"source.ns_per_record", "ns"},
	{"source.share", "ratio"},
	{"prefetch.observe_calls", "count"},
	{"prefetch.ns_per_observe", "ns"},
	{"prefetch.share", "ratio"},
	{"prefetch.accuracy", "ratio"},
	{"filter.allow_calls", "count"},
	{"filter.train_calls", "count"},
	{"filter.ns_per_call", "ns"},
	{"filter.share", "ratio"},
	{"filter.reject_ratio", "ratio"},
	{"frontend.observe_calls", "count"},
	{"frontend.share", "ratio"},
	{"frontend.accuracy", "ratio"},
	{"cpu_hier.share", "ratio"},
	{"cpu_hier.ns_per_cycle", "ns"},
	{"cpu_hier.cycles_per_instr", "cycles/instr"},
	{"sim.alloc_bytes_per_instr", "B/instr"},
	{"sim.allocs_per_cell", "count"},
	{"trace.overhead_frac", "ratio"},
	{"trace.null_span_ns", "ns"},
	{"sched.overhead_us_per_job", "us"},
	{"sched.steals", "count"},
	{"fabric.cas_put_us", "us"},
	{"fabric.cas_get_us", "us"},
	{"fabric.sim_share", "ratio"},
	{"fabric.warm_share", "ratio"},
	{"server.response_kb_cold", "KB"},
	{"server.response_kb_warm", "KB"},
	{"fabric.cells_redealt", "count"},
	{"fabric.cells_failed", "count"},
	{"fabric.cas_errors", "count"},
}

// Metric is one printed value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a run prints: the operations it attempted, how
// many failed (an error, a non-200, or an output that disagrees with
// another run of the same cell or with the pin), and every metric of the
// run's kind by name.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// median returns the middle of xs (mean of the two middles when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0..100) of xs, interpolating
// linearly between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method),
// the spread measure BENCHMARK.json's bounds are checked against.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	ld := len(s)
	var q [3]float64
	if ld == 0 {
		return q
	}
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload does
// not exercise).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
