// Request/response codec for the simulation service: JSON shapes, their
// validation, and the expansion of sweep requests into (benchmark,
// config) matrices. Validation happens here, before admission, so a
// malformed request never occupies a queue slot.

package server

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/filter"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tracefile"
	"repro/internal/workload"
)

// RunRequest is the body of POST /v1/run: one (benchmark, config, seed)
// simulation. Zero-valued fields take the server defaults; warmup is a
// pointer so an explicit 0 is distinguishable from absent.
type RunRequest struct {
	Benchmark string `json:"benchmark"`
	// Filter is the pollution-filter kind: "none" (default), "pa", "pc",
	// "adaptive", "deadblock", "perceptron", "bloom" or "tournament";
	// aliases resolve. "static" needs a profiling run and is rejected.
	Filter string `json:"filter,omitempty"`
	// CacheKB is the L1 data cache size: 8 (default), 16, or 32.
	CacheKB int `json:"cache_kb,omitempty"`
	// TableEntries overrides the filter history-table length (power of two).
	TableEntries int `json:"table_entries,omitempty"`
	// L1Ports overrides the L1 port count (§5.4 port/latency pairing).
	L1Ports int `json:"l1_ports,omitempty"`
	// PrefetchBuffer routes prefetch fills into the dedicated buffer (§5.5).
	PrefetchBuffer bool `json:"prefetch_buffer,omitempty"`

	Instructions int64  `json:"instructions,omitempty"`
	Warmup       *int64 `json:"warmup,omitempty"`
	Seed         uint64 `json:"seed,omitempty"`
	// DeadlineMS caps this request's wall time; capped by the server's
	// max deadline. 0 takes the server default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: a batch of simulations,
// either an explicit benchmarks x filters cross product or the standard
// paper-evaluation matrix. Identical cells are deduplicated; identical
// in-flight simulations are shared process-wide through the memo.
type SweepRequest struct {
	// Standard expands the full standard evaluation matrix (every
	// (benchmark, config) pair the paper figures request), optionally
	// narrowed by Benchmarks and extended by Traces. Filters/CacheKB are
	// ignored when set; Generators or IPrefetch with it is a request
	// error, since the matrix has no third axis.
	Standard bool `json:"standard,omitempty"`

	// Benchmarks to sweep; empty means the paper's ten.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Filters to cross with the benchmarks; empty means none/pa/pc.
	Filters []string `json:"filters,omitempty"`
	// Generators adds a third sweep axis: each named prefetch generator
	// (internal/prefetch registry; aliases resolve) runs alone against
	// every (benchmark, filter) cell, and the comparison rows carry the
	// generator. ["all"] expands to every registered generator. Empty
	// keeps the config's default generator mix and the plain filters
	// comparison.
	Generators []string `json:"generators,omitempty"`
	// IPrefetch adds the I-side sweep axis: each named instruction
	// prefetcher (internal/frontend registry; aliases resolve) runs
	// with the front end enabled against every (benchmark, filter)
	// cell, and the comparison rows carry the iprefetcher and the L1I's
	// metrics. ["all"] expands to every registered backend.
	// Mutually exclusive with Generators: enabling the front end
	// replaces the D-side generator mix, so crossing the two axes in
	// one sweep would mislabel the cells.
	IPrefetch []string `json:"iprefetch,omitempty"`
	// Traces extends the benchmark axis with registered trace-corpus
	// benchmarks (internal/tracefile; loaded at startup via pfserved
	// -trace-manifest). Names resolve with or without the "trace:"
	// prefix; ["all"] expands to every registered trace. Unknown names
	// are a request error listing the registered corpus.
	Traces  []string `json:"traces,omitempty"`
	CacheKB int      `json:"cache_kb,omitempty"`

	// Stream switches the response to NDJSON: one result object per
	// line AS EACH CELL LANDS (completion order — CAS hits first), then
	// a final summary line. Without it the whole sweep is buffered into
	// one SweepResponse, as before.
	Stream bool `json:"stream,omitempty"`

	Instructions int64  `json:"instructions,omitempty"`
	Warmup       *int64 `json:"warmup,omitempty"`
	Seed         uint64 `json:"seed,omitempty"`
	DeadlineMS   int64  `json:"deadline_ms,omitempty"`
}

// RunResult is one simulation's outcome inside a response.
type RunResult struct {
	// Name labels the cell as "<benchmark>/<filter>",
	// "<benchmark>/<generator>/<filter>" on a generator sweep, or
	// "<benchmark>/i:<iprefetcher>/<filter>" on an I-side sweep.
	Name      string `json:"name"`
	Benchmark string `json:"benchmark"`
	// Generator is the prefetch generator of a generator-axis cell;
	// empty on plain sweeps.
	Generator string `json:"generator,omitempty"`
	// IPrefetcher is the instruction prefetcher of an I-side-axis cell;
	// empty on plain sweeps.
	IPrefetcher string `json:"iprefetcher,omitempty"`
	Filter      string `json:"filter"`

	IPC        float64 `json:"ipc"`
	L1MissRate float64 `json:"l1_miss_rate"`
	// WallNS is this job's execution wall time on the pool; a cached or
	// shared result reports (near) zero.
	WallNS int64 `json:"wall_ns"`
	// KeySHA is the cell's content address (sha256 of its cache key) —
	// the CAS filename stem and the handle for GET /v1/cell?sha=….
	KeySHA string `json:"key_sha,omitempty"`
	// Source reports where a fabric-served cell came from: "cas", or
	// the worker URL that computed it. Empty on single-node execution.
	Source string `json:"source,omitempty"`

	Run   *stats.Run `json:"run,omitempty"`
	Error string     `json:"error,omitempty"`
}

// RunResponse is the body of a successful POST /v1/run.
type RunResponse struct {
	Seed         uint64    `json:"seed"`
	Instructions int64     `json:"instructions"`
	Warmup       int64     `json:"warmup"`
	Result       RunResult `json:"result"`
}

// SweepResponse is the body of a successful POST /v1/sweep. Individual
// cell failures are reported per-result (and counted in Errors), not as
// an HTTP error: partial sweeps are useful.
type SweepResponse struct {
	Seed         uint64 `json:"seed"`
	Instructions int64  `json:"instructions"`
	Warmup       int64  `json:"warmup"`
	// Jobs is the requested cell count; Unique is after deduplication.
	Jobs   int `json:"jobs"`
	Unique int `json:"unique"`
	Errors int `json:"errors"`
	// WallNS is the whole sweep's wall time under the scheduler.
	WallNS  int64       `json:"wall_ns"`
	Results []RunResult `json:"results,omitempty"`
	// Fingerprint digests the successful cells (sha256 over sorted
	// key+run pairs; see fabric.Fingerprint). A sweep sharded across
	// workers and the same sweep on one node MUST report equal
	// fingerprints — the fabric's determinism contract.
	Fingerprint string `json:"fingerprint,omitempty"`
	// CASHits counts cells served from the content-addressed store
	// without simulating (fabric execution only).
	CASHits int `json:"cas_hits,omitempty"`
	// Comparison is the head-to-head view of the successful cells: one
	// row per cell with its axis label, classification counts, accuracy,
	// coverage (and on I-side sweeps the fetch-miss rate), and IPC delta
	// against the unfiltered ("none") cell of the same (benchmark, axis
	// value) when the sweep includes one.
	Comparison []report.ComparisonRow `json:"comparison,omitempty"`
}

// StreamLine is one line of an NDJSON streaming sweep response
// (SweepRequest.Stream): Type "result" lines carry one cell each in
// completion order, and the single terminal Type "summary" line carries
// the sweep totals (fingerprint, error and CAS-hit counts, comparison —
// everything a buffered SweepResponse has except the Results array,
// which the stream already delivered). Error is set on the summary line
// when the sweep was cut short (deadline, cancellation).
type StreamLine struct {
	Type    string         `json:"type"`
	Result  *RunResult     `json:"result,omitempty"`
	Summary *SweepResponse `json:"summary,omitempty"`
	Error   string         `json:"error,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// validateBenchmarks checks every name against the workload registry.
// Unknown names in the trace namespace list the registered corpus, the
// same contract the filter and generator axes follow for their zoos.
func validateBenchmarks(names []string) error {
	for _, b := range names {
		if b == "" {
			return fmt.Errorf("empty benchmark name")
		}
		if _, ok := workload.ByName(b); !ok {
			if tracefile.IsTraceBench(b) {
				return fmt.Errorf("unknown trace %q (registered traces: %v)", b, tracefile.Registered())
			}
			return fmt.Errorf("unknown benchmark %q", b)
		}
	}
	return nil
}

// appendUnique appends each list's elements to dst, skipping
// duplicates while preserving first-occurrence order.
func appendUnique(dst []string, lists ...[]string) []string {
	seen := make(map[string]bool, len(dst))
	for _, b := range dst {
		seen[b] = true
	}
	for _, list := range lists {
		for _, b := range list {
			if !seen[b] {
				seen[b] = true
				dst = append(dst, b)
			}
		}
	}
	return dst
}

// buildConfig assembles a machine config from request knobs and
// validates it.
func buildConfig(filterName string, cacheKB, tableEntries, l1Ports int, prefetchBuffer bool) (config.Config, error) {
	var cfg config.Config
	switch cacheKB {
	case 0, 8:
		cfg = config.Default8K()
	case 16:
		cfg = config.Default16K()
	case 32:
		cfg = config.Default32K()
	default:
		return config.Config{}, fmt.Errorf("cache_kb must be 8, 16, or 32, got %d", cacheKB)
	}
	if filterName == "" {
		filterName = string(config.FilterNone)
	}
	kind, err := experiments.FilterAxis.Resolve(filterName)
	if err != nil {
		return config.Config{}, err
	}
	cfg = cfg.WithFilter(config.FilterKind(kind))
	if tableEntries > 0 {
		cfg = cfg.WithTableEntries(tableEntries)
	}
	if l1Ports > 0 {
		cfg = cfg.WithL1Ports(l1Ports)
	}
	if prefetchBuffer {
		cfg = cfg.WithPrefetchBuffer(true)
	}
	if err := sim.Validate(cfg); err != nil {
		return config.Config{}, err
	}
	return cfg, nil
}

// expandRun turns a validated RunRequest into its single cell.
func expandRun(req RunRequest) ([]experiments.Cell, error) {
	if err := validateBenchmarks([]string{req.Benchmark}); err != nil {
		return nil, err
	}
	cfg, err := buildConfig(req.Filter, req.CacheKB, req.TableEntries, req.L1Ports, req.PrefetchBuffer)
	if err != nil {
		return nil, err
	}
	return []experiments.Cell{{Bench: req.Benchmark, Filter: string(cfg.Filter.Kind), Config: cfg}}, nil
}

// expandSweep turns a validated SweepRequest into its cells and the
// requested cell count. p supplies the standard-matrix expansion; for a
// standard request expandSweep narrows p's benchmarks to the request's.
// The filter, generator and I-side axes expand through the experiments
// sweep axes, so names canonicalise and dedupe exactly as in
// pfexperiments; the cells stay filter-major.
func expandSweep(req SweepRequest, p *experiments.Params) ([]experiments.Cell, int, error) {
	if err := validateBenchmarks(req.Benchmarks); err != nil {
		return nil, 0, err
	}
	axis, axisNames, err := experiments.SweepAxis(req.Generators, req.IPrefetch)
	if err != nil {
		return nil, 0, err
	}
	var traces []string
	if len(req.Traces) > 0 {
		if traces, err = experiments.ExpandTraces(req.Traces); err != nil {
			return nil, 0, err
		}
	}
	if req.Standard {
		if axis != nil {
			return nil, 0, fmt.Errorf("the standard matrix cannot be crossed with the generators or iprefetch axis")
		}
		p.Benchmarks = req.Benchmarks
		if len(traces) > 0 {
			// The trace axis extends the standard matrix's benchmark set.
			base := p.Benchmarks
			if len(base) == 0 {
				base = workload.PaperNames()
			}
			p.Benchmarks = appendUnique(nil, base, traces)
		}
		cells := p.StandardMatrix()
		return cells, len(cells), nil
	}
	benches := req.Benchmarks
	if len(benches) == 0 && len(traces) == 0 {
		benches = workload.PaperNames()
	}
	benches = appendUnique(nil, benches, traces)
	names := req.Filters
	if len(names) == 0 {
		names = []string{string(config.FilterNone), string(config.FilterPA), string(config.FilterPC)}
	} else if len(names) == 1 && names[0] == "all" {
		names = filter.Sweepable() // expanded here so jobs counts every backend
	}
	filters, err := experiments.FilterAxis.Expand(names)
	if err != nil {
		return nil, 0, err
	}
	values := []string{""}
	if axis != nil {
		if values, err = axis.Expand(axisNames); err != nil {
			return nil, 0, err
		}
	}
	cells := make([]experiments.Cell, 0, len(benches)*len(filters)*len(values))
	for _, f := range filters {
		cfg, err := buildConfig(f, req.CacheKB, 0, 0, false)
		if err != nil {
			return nil, 0, err
		}
		for _, v := range values {
			c := experiments.Cell{Filter: f, Config: cfg}
			if axis != nil {
				axis.Apply(&c, v)
			}
			for _, b := range benches {
				c.Bench = b
				cells = append(cells, c)
			}
		}
	}
	// Jobs counts every requested filter, duplicates included; Unique
	// (after cell dedup) is what runs.
	return cells, len(benches) * len(names) * len(values), nil
}

// resultForCell assembles one RunResult from a cell and its outcome,
// stamping the content address and fabric provenance.
func resultForCell(c sweepCell, o cellOutcome) RunResult {
	out := RunResult{
		Name:        c.Name(),
		Benchmark:   c.Bench,
		Generator:   c.Generator,
		IPrefetcher: c.IPrefetcher,
		Filter:      c.Filter,
		WallNS:      o.wallNS,
		KeySHA:      fabric.KeySHA(c.key),
		Source:      o.source,
	}
	switch {
	case o.err != nil:
		out.Error = o.err.Error()
	case o.run == nil:
		out.Error = "cell produced no result"
	default:
		out.Run = o.run
		out.IPC = o.run.IPC()
		out.L1MissRate = o.run.L1MissRate()
	}
	return out
}
