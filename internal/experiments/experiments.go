// Package experiments regenerates every table and figure of the paper's
// evaluation (§5), one experiment per artifact, plus the textual results
// of §5.2.1 and this reproduction's own ablations.
//
// Each experiment produces a report.Table whose rows/series mirror what
// the paper plots: the same benchmarks, the same scenarios, the same
// metrics. Absolute values differ (the substrate is a synthetic-workload
// simulator, not the authors' SimpleScalar/Alpha setup); EXPERIMENTS.md
// records paper-vs-measured for every artifact.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Params control an experiment run.
type Params struct {
	// Instructions measured per simulation (after warmup).
	Instructions int64
	// Warmup instructions excluded from measurement; 0 or a negative
	// count runs none.
	Warmup int64
	// Seed for workload generation and randomized policies.
	Seed uint64
	// Benchmarks to include; empty means the paper's ten.
	Benchmarks []string
	// Metrics, when non-nil, receives harness telemetry: run-cache hits
	// and simulations ("experiments.cache.*"), per-benchmark simulation
	// wall-time histograms ("experiments.sim.wall_ns.<bench>"), and
	// Prewarm totals ("experiments.prewarm.*"). All updates are nil-safe,
	// so an unset registry costs nothing.
	Metrics *metrics.Registry

	// cache is the harness's record of its own runs, by cache key:
	// RunSim fills it, and Prewarm, Fingerprint and CachedRuns read it.
	cache map[string]stats.Run
}

// DefaultParams returns the harness defaults: 2M measured instructions
// after 1M warmup (the paper uses 300M on native binaries; the synthetic
// models reach steady state far sooner).
func DefaultParams() Params {
	return Params{Instructions: 2_000_000, Warmup: 1_000_000, Seed: 1}
}

// benchmarks resolves the benchmark list: the paper's ten unless the
// caller narrowed or extended it.
func (p *Params) benchmarks() []string {
	if len(p.Benchmarks) > 0 {
		return p.Benchmarks
	}
	return workload.PaperNames()
}

// CacheKey identifies one simulation: Params.cache and every pfserved
// daemon's memory are keyed by it. Every field that can change
// the result is in the key EXPLICITLY — benchmark, instruction budget,
// warmup, and seed — ahead of the full canonical config encoding.
// The seed and budget segments are deliberately redundant with the config
// JSON: the key must stay collision-free even for a caller that builds a
// config without stamping p.Seed into it first (the bug class this
// construction closes; see TestCacheKeyIncludesSeedAndBudget).
func (p *Params) CacheKey(bench string, cfg config.Config) string {
	cfg.Seed = p.Seed
	b, err := json.Marshal(cfg)
	if err != nil {
		// config.Config is plain data; Marshal cannot fail in practice.
		b = []byte(fmt.Sprintf("marshal-error:%v", err))
	}
	return fmt.Sprintf("%s|n=%d|w=%d|seed=%d|%s", bench, p.Instructions, p.Warmup, p.Seed, b)
}

// run executes (and caches) one simulation.
func (p *Params) run(bench string, cfg config.Config) (stats.Run, error) {
	return p.RunSim(context.Background(), bench, cfg)
}

// RunSim is run with cancellation: the harness's run cache, else
// Simulate, whose result the cache records. Concurrent calls for one
// uncached key each simulate the same deterministic result.
func (p *Params) RunSim(ctx context.Context, bench string, cfg config.Config) (stats.Run, error) {
	key := p.CacheKey(bench, cfg)
	if r, ok := p.cachedRun(key); ok {
		p.Metrics.Counter("experiments.cache.hits").Inc()
		return r, nil
	}
	r, err := p.Simulate(ctx, bench, cfg)
	if err == nil {
		p.storeRun(key, r)
	}
	return r, err
}

// Simulate runs one simulation under p's seed and budget, uncached: it
// counts "experiments.cache.misses" and records the run's wall time in
// "experiments.sim.wall_ns.<bench>". The context is honoured until the
// simulation starts; once started it runs to completion.
func (p *Params) Simulate(ctx context.Context, bench string, cfg config.Config) (stats.Run, error) {
	if err := ctx.Err(); err != nil {
		return stats.Run{}, err
	}
	cfg.Seed = p.Seed
	p.Metrics.Counter("experiments.cache.misses").Inc()
	start := time.Now()
	r, err := sim.Run(p.simOptions(bench, cfg))
	if err != nil {
		return stats.Run{}, fmt.Errorf("experiments: %s: %w", bench, err)
	}
	p.Metrics.Histogram("experiments.sim.wall_ns." + bench).Observe(uint64(time.Since(start)))
	return r, nil
}

// simOptions is where Params meet sim.Options: the benchmark, the
// config and the budget. Params.Warmup counts warmup instructions, so 0
// means none, while sim.Options reads 0 as DefaultWarmup and a negative
// count as none.
func (p *Params) simOptions(bench string, cfg config.Config) sim.Options {
	warmup := p.Warmup
	if warmup == 0 {
		warmup = -1
	}
	return sim.Options{Benchmark: bench, Config: cfg, MaxInstructions: p.Instructions, Warmup: warmup}
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	// ID is the artifact key: "table1", "table2", "fig1" … "fig16",
	// "extras", "ablation".
	ID string
	// Title describes what the paper artifact shows.
	Title string
	// Run regenerates the artifact.
	Run func(p *Params) (*Table, error)
}

// Table aliases report.Table so callers don't need a second import; see
// the report package for rendering.
type Table = report.Table

// all is every experiment, in paper order: the two tables, the figures,
// then this reproduction's baselines, extensions and zoo sweeps.
var all = []Experiment{
	{"table1", "System configuration (Table 1)", runTable1},
	{"table2", "Benchmark properties: L1/L2 miss rates with prefetch off (Table 2)", runTable2},
	{"fig1", "Effectiveness of prefetches (Figure 1)", runFig1},
	{"fig2", "Traffic distribution of L1 cache (Figure 2)", runFig2},
	{"fig4", "Prefetch miss/hit counts, 8KB D-cache (Figure 4)", onMachine(runFigCounts, config.Default8K(), "8KB")},
	{"fig5", "Bad/good prefetch ratios, 8KB D-cache (Figure 5)", onMachine(runFigRatio, config.Default8K(), "8KB")},
	{"fig6", "IPC comparison, 8KB D-cache (Figure 6)", onMachine(runFigIPC, config.Default8K(), "8KB")},
	{"fig7", "Prefetch miss/hit counts, 32KB D-cache (Figure 7)", onMachine(runFigCounts, config.Default32K(), "32KB")},
	{"fig8", "Bad/good prefetch ratios, 32KB D-cache (Figure 8)", onMachine(runFigRatio, config.Default32K(), "32KB")},
	{"fig9", "IPC comparison, 32KB D-cache (Figure 9)", onMachine(runFigIPC, config.Default32K(), "32KB")},
	{"fig10", "Good prefetches vs history table size (Figure 10)", runFig10},
	{"fig11", "Bad prefetches vs history table size (Figure 11)", runFig11},
	{"fig12", "IPC vs history table size (Figure 12)", runFig12},
	{"fig13", "Bad/good ratio vs number of L1 ports (Figure 13)", runFig13},
	{"fig14", "IPC vs number of L1 ports (Figure 14)", runFig14},
	{"fig15", "Bad/good ratio with a dedicated prefetch buffer (Figure 15)", runFig15},
	{"fig16", "IPC with a dedicated prefetch buffer (Figure 16)", runFig16},
	{"baselines", "All pollution-control baselines side by side (8KB D-cache)", runBaselines},
	{"extras", "§5.2.1 textual results: per-prefetcher filtering, 16KB cache, static filter, adaptive filter", runExtras},
	{"ablation", "Design ablations: table indexing, initial counter, stride prefetcher", runAblation},
	{"taxonomy", "Full prefetch taxonomy (Srinivasan et al. [17]) vs the paper's 2-way split", runTaxonomy},
	{"energy", "Memory-system energy: no filter vs PA vs PC (§3's energy motivation)", runEnergy},
	{"adaptivity", "Dynamic vs static filtering across working-set changes (§2's argument, on the phased workload)", runAdaptivity},
	{"variance", "Seed-to-seed variance of the headline IPC speedups (Figure 6 across 5 seeds)", runVariance},
	{"multiprog", "Multiprogramming: filters under context switches (wave5 + mcf interleaved)", runMultiprog},
	{"aggression", "Prefetch aggressiveness sweep: NSP degree 1/2/4 with and without the PA filter", runAggression},
	{"memlat", "Memory latency sweep: the filter's value vs the CPU/memory speed gap", runMemlat},
	sweepExperiment("filters", "Pollution-filter backends head to head (internal/filter zoo)", nil, nil),
	sweepExperiment("generators", "Prefetch-generator zoo crossed with the filter zoo (internal/prefetch registry)", GeneratorAxis, zooSlice),
	{"traces", "Trace corpus crossed with filter backends (real-trace replay)", runTraces},
	sweepExperiment("iprefetch", "Instruction-prefetcher zoo crossed with the filter zoo (internal/frontend registry)", IPrefetchAxis, zooSlice),
}

// onMachine binds a figure's runner to one base machine.
func onMachine(run func(*Params, config.Config, string) (*Table, error), base config.Config, label string) func(*Params) (*Table, error) {
	return func(p *Params) (*Table, error) { return run(p, base, label) }
}

// All returns every experiment in paper order.
func All() []Experiment { return slices.Clone(all) }

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	i := slices.IndexFunc(all, func(e Experiment) bool { return e.ID == id })
	if i < 0 {
		return Experiment{}, false
	}
	return all[i], true
}

// IDs returns every experiment ID in paper order.
func IDs() []string {
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
}
