// Package repro is a from-scratch Go reproduction of
//
//	Xiaotong Zhuang and Hsien-Hsin S. Lee,
//	"A Hardware-based Cache Pollution Filtering Mechanism for
//	 Aggressive Prefetches", ICPP 2003.
//
// It bundles a trace-driven out-of-order CPU and cache-hierarchy
// simulator, the paper's two hardware prefetchers (tagged next-sequence
// and shadow-directory prefetching), software-prefetch support, the
// PA-based and PC-based pollution filters that are the paper's
// contribution, the baselines it compares against (no filtering, a
// static profile-driven filter, a dead-block gate, a dedicated prefetch
// buffer, a victim cache), ten synthetic benchmark models standing in
// for the paper's Olden/SPEC95/SPEC2000 workloads plus three
// micro-workloads, and an experiment harness that regenerates every
// table and figure of the evaluation along with this repo's extension
// studies.
//
// # Quickstart
//
//	cfg := repro.DefaultConfig().WithFilter(repro.FilterPC)
//	run, err := repro.Simulate(repro.Options{
//		Benchmark: "mcf",
//		Config:    cfg,
//	})
//	if err != nil { ... }
//	fmt.Printf("IPC %.2f, bad prefetches %d\n", run.IPC(), run.Prefetches.Bad)
//
// See the examples/ directory for runnable programs and cmd/ for the
// CLI tools (pfsim, pfexperiments, pftrace).
package repro

import (
	"io"

	"repro/internal/analysis"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/filter"
	"repro/internal/isa"
	"repro/internal/lint"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/taxonomy"
	"repro/internal/tracefile"
	"repro/internal/workload"
)

// Re-exported types: the public API surface. Aliases keep the
// implementation in internal packages while giving users stable names.
type (
	// Config is the full machine description (Table 1 parameters).
	Config = config.Config
	// CacheConfig describes one cache level.
	CacheConfig = config.CacheConfig
	// FilterKind selects the pollution-filter variant.
	FilterKind = config.FilterKind
	// FilterConfig parameterizes one pollution-filter backend; feed it
	// to NewFilterBackend or embed it in a Config.
	FilterConfig = config.FilterConfig
	// Options names what Simulate should run.
	Options = sim.Options
	// Run holds one simulation's measurements.
	Run = stats.Run
	// Prefetches is the good/bad prefetch classification of a run.
	Prefetches = stats.Prefetches
	// Filter is the pollution-filter interface; implement it to plug a
	// custom filter into the simulator via Options.Filter.
	Filter = core.Filter
	// FilterRequest is the query a Filter answers per in-flight prefetch.
	FilterRequest = core.Request
	// FilterFeedback is the eviction-time training signal.
	FilterFeedback = core.Feedback
	// Record is one dynamic instruction of a trace.
	Record = isa.Record
	// Source produces a trace record stream.
	Source = isa.Source
	// Benchmark describes one workload model.
	Benchmark = workload.Spec
	// Experiment regenerates one paper table/figure.
	Experiment = experiments.Experiment
	// ExperimentParams control experiment runs.
	ExperimentParams = experiments.Params
	// ResultTable is the rendered output of an experiment.
	ResultTable = report.Table
	// TaxonomyCounts is the full Srinivasan prefetch classification
	// produced when Options.Taxonomy is set.
	TaxonomyCounts = taxonomy.Counts
	// TaxonomyClass names one taxonomy category.
	TaxonomyClass = taxonomy.Class
)

// Taxonomy classes (see internal/taxonomy).
const (
	TaxUseful      = taxonomy.Useful
	TaxPolluting   = taxonomy.Polluting
	TaxConflicting = taxonomy.Conflicting
	TaxUseless     = taxonomy.Useless
)

// Filter kinds (see config). FilterPA/FilterPC are the paper's
// contribution; perceptron, bloom, and tournament are the learned
// backends from the internal/filter zoo (see EXPERIMENTS.md).
const (
	FilterNone       = config.FilterNone
	FilterPA         = config.FilterPA
	FilterPC         = config.FilterPC
	FilterStatic     = config.FilterStatic
	FilterAdaptive   = config.FilterAdaptive
	FilterDeadBlock  = config.FilterDeadBlock
	FilterPerceptron = config.FilterPerceptron
	FilterBloom      = config.FilterBloom
	FilterTournament = config.FilterTournament
)

// FilterBackends returns every backend registered in the pollution-
// filter zoo (internal/filter), sorted. Aliases such as "table-pa" are
// not listed; they resolve to their canonical kinds.
func FilterBackends() []string { return filter.Registry.Kinds() }

// SweepableFilterBackends returns the backends a head-to-head sweep can
// run directly — every registered kind except "static", which needs a
// profiling pass (use SimulateStatic).
func SweepableFilterBackends() []string { return filter.Sweepable() }

// NewFilterBackend constructs a filter from a validated FilterConfig via
// the registry, e.g. DefaultConfig().Filter with Kind overridden.
func NewFilterBackend(cfg config.FilterConfig) (Filter, error) { return filter.New(cfg) }

// DefaultConfig returns the paper's Table 1 machine: 8KB direct-mapped
// 1-cycle 3-port L1, 512KB 4-way L2, 150-cycle memory, NSP+SDP+software
// prefetching, no filtering.
func DefaultConfig() Config { return config.Default() }

// Config16K returns the §5.2.1 16KB-L1 comparison machine.
func Config16K() Config { return config.Default16K() }

// Config32K returns the §5.2.2 32KB-L1 (4-cycle) machine.
func Config32K() Config { return config.Default32K() }

// Simulate runs one simulation to completion and returns its
// measurements.
func Simulate(opts Options) (Run, error) { return sim.Run(opts) }

// SimulateStatic runs the two-phase static-filter baseline: a profiling
// pass followed by a measured pass with the frozen profile.
func SimulateStatic(opts Options, minGoodFrac float64) (Run, error) {
	return sim.RunStatic(opts, core.PAKey, minGoodFrac)
}

// Benchmarks returns every workload model: the paper's ten plus the
// micro models (stream, random, phased) this repo adds.
func Benchmarks() []Benchmark { return workload.All() }

// PaperBenchmarks returns only the paper's ten models, in Table 2 order.
func PaperBenchmarks() []Benchmark { return workload.Paper() }

// BenchmarkNames returns every model name.
func BenchmarkNames() []string { return workload.Names() }

// Experiments returns every regenerable paper artifact in paper order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID finds one experiment ("table2", "fig6", …).
func ExperimentByID(id string) (Experiment, bool) { return experiments.ByID(id) }

// DefaultExperimentParams returns the harness defaults (2M measured
// instructions after 1M warmup, seed 1).
func DefaultExperimentParams() ExperimentParams { return experiments.DefaultParams() }

// NewPAFilter builds the paper's Per-Address pollution filter with the
// given history-table entry count (power of two).
func NewPAFilter(entries int) (Filter, error) {
	return core.NewPA(entries, 2, 2, core.IndexDirect)
}

// NewPCFilter builds the paper's Program-Counter pollution filter.
func NewPCFilter(entries int) (Filter, error) {
	return core.NewPC(entries, 2, 2, core.IndexDirect)
}

// NewHashedPAFilter builds a PA filter with multiplicative hash indexing
// instead of the paper's direct indexing (an aliasing ablation).
func NewHashedPAFilter(entries int) (Filter, error) {
	return core.NewPA(entries, 2, 2, core.IndexHash)
}

// NewTaggedPAFilter builds a PA filter whose history table carries
// partial tags (an aliasing-mitigation ablation; see internal/core).
func NewTaggedPAFilter(entries int, tagBits uint) (Filter, error) {
	return core.NewTaggedPA(entries, tagBits)
}

// NewTaggedPCFilter is the PC-keyed tagged variant.
func NewTaggedPCFilter(entries int, tagBits uint) (Filter, error) {
	return core.NewTaggedPC(entries, tagBits)
}

// NewCustomFilter builds a history-table filter with a caller-supplied
// key function, for design-space exploration.
func NewCustomFilter(name string, key func(lineAddr, triggerPC uint64) uint64, entries int) (Filter, error) {
	return core.NewTableFilter(name, key, entries, 2, 2, core.IndexDirect)
}

// SliceSource adapts a pre-built record slice into a trace Source.
func SliceSource(recs []Record) Source { return isa.NewSliceSource(recs) }

// InterleaveSource round-robins several traces on a context-switch
// quantum (multiprogramming studies).
func InterleaveSource(quantum int64, srcs ...Source) (Source, error) {
	return isa.NewInterleaveSource(quantum, srcs...)
}

// LocalityProfile is a trace's reuse-distance analysis.
type LocalityProfile = analysis.Profile

// AnalyzeTrace computes the reuse-distance profile of up to max records
// from a trace (max <= 0 analyzes everything; see internal/analysis).
func AnalyzeTrace(src Source, lineBytes int, max int64) (LocalityProfile, error) {
	return analysis.AnalyzeSource(src, lineBytes, max)
}

// WriteTrace encodes recs to w as one PFTC stream, the chunked,
// checksummed trace format (docs/TRACES.md), at default options; see
// cmd/pftrace for the file tool.
func WriteTrace(w io.Writer, recs []Record) error {
	return tracefile.Encode(w, recs, tracefile.WriterOptions{})
}

// ReadTrace decodes a whole PFTC stream, verifying its fingerprint.
func ReadTrace(r io.Reader) ([]Record, error) { return tracefile.Decode(r) }

// Lint runs the repository's static-analysis suite (internal/lint, the
// engine behind cmd/pflint) over the packages matching patterns, resolved
// relative to dir; no patterns means "./...". It returns the surviving
// findings as "file:line:col: rule: message" strings, empty when the tree
// is clean. See docs/LINTING.md for the rules.
func Lint(dir string, patterns ...string) ([]string, error) {
	pkgs, err := lint.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	findings := lint.Run(pkgs, lint.Analyzers())
	out := make([]string, len(findings))
	for i, f := range findings {
		out[i] = f.String()
	}
	return out, nil
}
