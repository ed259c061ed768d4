// Package sim binds workload, CPU, memory hierarchy, prefetchers, and
// pollution filter into runnable simulations, and is the layer the public
// API, the experiment harness, and the CLIs drive.
package sim

import (
	"fmt"
	"io"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	pfilter "repro/internal/filter"
	"repro/internal/frontend"
	"repro/internal/hier"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/taxonomy"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Options names what to simulate.
type Options struct {
	// Benchmark is a workload name from workload.Names(). Mutually
	// exclusive with Source.
	Benchmark string
	// Source supplies the trace directly (trace files, tests, custom
	// generators). When set, Benchmark is used only as a label.
	Source isa.Source
	// Config is the machine; zero value means config.Default().
	Config config.Config
	// Filter overrides the filter the config would build (used for custom
	// filters and for the static filter's two-phase flow). Optional.
	Filter core.Filter
	// MaxInstructions bounds the run; overrides Config.MaxInstructions
	// when positive.
	MaxInstructions int64
	// Warmup runs this many instructions before statistics collection
	// starts; caches, predictors, and the filter's history table stay warm
	// across the boundary. Negative disables warmup; zero selects
	// DefaultWarmup.
	Warmup int64
	// Taxonomy instruments the run with the full Srinivasan prefetch
	// taxonomy (reference [17]); the result lands in Run.Taxonomy.
	Taxonomy bool
	// Trace, when non-nil, receives cycle-stamped events for the whole
	// prefetch lifecycle (issue/filter/fill/reference/eviction), demand
	// misses, and bus grants. Purely observational. Warmup events are
	// recorded too; the trace is the full run's timeline.
	Trace *trace.Tracer
	// Metrics, when non-nil, receives live "sim.*" counters during the
	// run (reset at the warmup boundary alongside stats) and end-of-run
	// gauges for the CPU, caches, and filter. After Run returns, the
	// registry's sim.pf.good/bad/filtered counters equal the returned
	// Run.Prefetches aggregates exactly.
	Metrics *metrics.Registry
}

// DefaultInstructions is the per-run instruction budget experiments use
// when none is given. The paper runs 300M instructions per benchmark on
// native hardware; the synthetic models reach steady state much sooner.
const DefaultInstructions = 1_000_000

// DefaultWarmup is the instruction count excluded from measurement at the
// start of each run, long enough to populate the L2 and history table.
const DefaultWarmup = 1_000_000

// Validate checks cfg as Run does before it builds a machine: the
// numeric and structural rules of config.Validate, then every kind name
// the config holds, resolved through its registry, so an unknown filter,
// tournament side or instruction prefetcher is rejected with the
// registered alternatives. Generators are enable flags, not names, so
// there is none to resolve.
func Validate(cfg config.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if _, err := pfilter.Registry.Resolve(string(cfg.Filter.Kind)); err != nil {
		return err
	}
	for _, side := range []config.FilterKind{cfg.Filter.TournamentA, cfg.Filter.TournamentB} {
		if side == "" {
			continue
		}
		if _, err := pfilter.Registry.Resolve(string(side)); err != nil {
			return fmt.Errorf("tournament side: %w", err)
		}
	}
	if fe := cfg.Frontend; fe != nil && fe.IPrefetch.Canonical() != config.IPrefetchNone {
		if _, err := frontend.Registry.Resolve(string(fe.IPrefetch)); err != nil {
			return err
		}
	}
	return nil
}

// Run executes one simulation and returns its measurements.
func Run(opts Options) (stats.Run, error) {
	cfg := opts.Config
	if cfg.L1.SizeBytes == 0 { // zero value: use the paper's default machine
		cfg = config.Default()
	}
	if err := Validate(cfg); err != nil {
		return stats.Run{}, err
	}

	src := opts.Source
	label := opts.Benchmark
	if src == nil {
		spec, ok := workload.ByName(opts.Benchmark)
		if !ok {
			return stats.Run{}, fmt.Errorf("sim: unknown benchmark %q", opts.Benchmark)
		}
		src = spec.New(cfg.Seed)
		label = spec.Name
	}
	if label == "" {
		label = "custom"
	}

	filter := opts.Filter
	if filter == nil {
		// The registry covers every backend, including the learned ones in
		// internal/filter; deadblock resolves to a pass-through core filter
		// because that baseline lives in the hierarchy (it needs the L1's
		// victim state).
		f, err := pfilter.New(cfg.Filter)
		if err != nil {
			return stats.Run{}, err
		}
		filter = f
	}

	maxInstr := cfg.MaxInstructions
	if opts.MaxInstructions > 0 {
		maxInstr = opts.MaxInstructions
	}
	if maxInstr == 0 {
		maxInstr = DefaultInstructions
	}

	h, err := hier.New(cfg, filter, xrand.New(cfg.Seed^0xfeed))
	if err != nil {
		return stats.Run{}, err
	}
	// The machine's big arrays go back for the next run once the result
	// is built: nothing in a stats.Run points into them.
	defer h.Release()
	if opts.Taxonomy {
		// The victim-reuse window approximates L1 residency in fills.
		tr, err := taxonomy.NewTracker(cfg.L1.SizeBytes / cfg.L1.LineBytes)
		if err != nil {
			return stats.Run{}, err
		}
		h.Tax = tr
	}
	c, err := cpu.New(cfg.CPU, h)
	if err != nil {
		return stats.Run{}, err
	}
	defer c.Release()
	if opts.Trace != nil || opts.Metrics != nil {
		h.AttachObservability(opts.Trace, opts.Metrics)
		c.AttachMetrics(opts.Metrics)
	}

	warmup := opts.Warmup
	switch {
	case warmup < 0:
		warmup = 0
	case warmup == 0:
		warmup = DefaultWarmup
	}

	res := c.Run(src, maxInstr, warmup)
	h.Finish()

	// Sources the simulator built itself (trace-backed workloads hold an
	// open file) are closed here; Close also surfaces any decode error
	// that silently ended the stream mid-run. Caller-supplied sources
	// stay caller-owned.
	if opts.Source == nil {
		if cl, ok := src.(io.Closer); ok {
			if cerr := cl.Close(); cerr != nil {
				return stats.Run{}, fmt.Errorf("sim: %s source: %w", label, cerr)
			}
		}
	}

	fs := filter.Stats()
	filterName := filter.Name()
	if h.Dead != nil {
		filterName = "deadblock"
	}
	run := stats.Run{
		Benchmark:    label,
		Filter:       filterName,
		Instructions: res.Instructions,
		Cycles:       res.Cycles,
		Prefetches:   h.Pf,
		Traffic:      h.Traffic,

		L1DemandAccesses: h.L1.Stats.DemandAccesses,
		L1DemandMisses:   h.L1.Stats.DemandMisses,
		L2DemandAccesses: h.L2.Stats.DemandAccesses,
		L2DemandMisses:   h.L2.Stats.DemandMisses,

		BranchPredictions:    res.BranchPredictions,
		BranchMispredictions: res.BranchMispredictions,

		PortConflictCycles: res.PortConflictCycles,
		PrefetchPortWaits:  res.PrefetchPortWaits,

		FilterQueries:  fs.Queries,
		FilterRejected: fs.Rejected,

		BySource: h.BySource,
	}
	if h.Tax != nil {
		counts := h.Tax.Counts
		run.Taxonomy = &counts
	}
	if h.FrontendEnabled() {
		run.Frontend = &stats.Frontend{
			IPrefetcher:      string(cfg.Frontend.IPrefetch.Canonical()),
			FetchBlocks:      h.FetchBlocks,
			FetchMisses:      h.FetchMisses,
			FetchStallCycles: res.FetchStallCycles,
			Prefetches:       h.IPf,
		}
	}
	if reg := opts.Metrics; reg != nil {
		h.L1.DumpMetrics(reg, "sim.l1")
		h.L2.DumpMetrics(reg, "sim.l2")
		if d, ok := filter.(core.MetricsDumper); ok {
			d.DumpMetrics(reg, "sim.filter")
		}
		reg.Counter("sim.bus.transfers").Set(h.Bus.Transfers)
		reg.Counter("sim.bus.bytes_moved").Set(h.Bus.BytesMoved)
		reg.Counter("sim.bus.busy_cycles").Set(h.Bus.BusyCycles)
		reg.Counter("sim.bus.stall_cycles").Set(h.Bus.StallCycles)
		reg.Counter("sim.bus.demand_transfers").Set(h.Bus.DemandXfers)
		reg.Counter("sim.bus.prefetch_transfers").Set(h.Bus.PrefetchXfers)
	}
	return run, nil
}

// RunStatic performs the two-phase static-filter flow (§2's Srinivasan
// baseline): a profiling run with a pass-through collector, then a
// measured run with the frozen profile. key selects the profile's keying
// (core.PAKey or core.PCKey); minGoodFrac is the block threshold.
//
// The profiling run uses a perturbed seed — a different input data set —
// because that is the static approach's defining property: "the profiling
// information can provide precise global information for a given input
// data set, however, it lacks the dynamic adaptivity during runtime when
// the working set changes" (§2). Profiling the identical input would give
// the static filter an oracle the technique does not have in practice.
func RunStatic(opts Options, key core.KeyFunc, minGoodFrac float64) (stats.Run, error) {
	name := "pa"
	if opts.Filter != nil {
		return stats.Run{}, fmt.Errorf("sim: RunStatic builds its own filters; Options.Filter must be nil")
	}
	collector := core.NewProfileCollector(name, key)

	profOpts := opts
	profOpts.Filter = collector
	profOpts.Config.Seed = opts.Config.Seed ^ 0x7261696e // "rain": training input
	if _, err := Run(profOpts); err != nil {
		return stats.Run{}, fmt.Errorf("sim: profiling run: %w", err)
	}

	measured := opts
	measured.Filter = collector.Freeze(minGoodFrac)
	// A fresh source is built inside Run for named benchmarks; callers
	// passing an explicit Source must supply a replayable one themselves.
	if opts.Source != nil {
		return stats.Run{}, fmt.Errorf("sim: RunStatic requires a named benchmark (sources are single-use)")
	}
	return Run(measured)
}

// NoPrefetchConfig returns cfg with every prefetch generator and
// software prefetching disabled — the Table 2 measurement configuration.
func NoPrefetchConfig(cfg config.Config) config.Config { return cfg.WithGenerator("") }
