// Parallel pre-warming of the experiment cache.
//
// Every simulation is deterministic and independent, so the harness runs
// them concurrently and lets the experiments read cached results.
// Prewarm enumerates the standard evaluation matrix — every (benchmark,
// config) pair the paper-figure experiments will request — and fills the
// cache through internal/sched's work-stealing pool: jobs are ordered
// longest-first by the per-benchmark wall-time histograms the harness
// records under "experiments.sim.wall_ns.<bench>", dealt into per-worker
// deques, and rebalanced by stealing. Results land in the cache under
// the cache lock; determinism of the final cache state is independent of
// worker count and steal order (see TestPrewarmParallelDeterminism).
package experiments

import (
	"bytes"
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// cacheMu guards Params.cache. It is package-level rather than per-Params
// because Params is copied by value in places; all Params sharing a cache
// map share the zero-allocation global lock. Contention is irrelevant at
// simulation granularity (milliseconds per critical section).
var cacheMu sync.Mutex

// cachedRun is the synchronized read side of the run cache.
func (p *Params) cachedRun(key string) (stats.Run, bool) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	r, ok := p.cache[key]
	return r, ok
}

// storeRun is the synchronized write side.
func (p *Params) storeRun(key string, r stats.Run) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if p.cache == nil {
		p.cache = make(map[string]stats.Run)
	}
	p.cache[key] = r
}

// StandardMatrix enumerates every (benchmark, config) cell the
// paper-figure experiments request, the matrix Prewarm schedules: the
// three-filter triples at 8KB and 32KB, the no-prefetch Table 2 runs, the
// table-size and port sweeps, the buffer schemes, and the 16KB
// comparison. Narrow it by setting Params.Benchmarks.
func (p *Params) StandardMatrix() []Cell {
	var cells []Cell
	add := func(cfg config.Config) {
		for _, b := range p.benchmarks() {
			cells = append(cells, Cell{Bench: b, Filter: string(cfg.Filter.Kind), Config: cfg})
		}
	}
	// Table 2: prefetch off.
	add(sim.NoPrefetchConfig(config.Default()))
	// Figures 1-9: filter triples on both cache sizes.
	for _, base := range []config.Config{config.Default8K(), config.Default32K()} {
		for _, kind := range []config.FilterKind{config.FilterNone, config.FilterPA, config.FilterPC} {
			add(base.WithFilter(kind))
		}
	}
	// Figures 10-12: table-size sweep (4096 already covered by the triple).
	for _, size := range tableSizes {
		add(config.Default().WithFilter(config.FilterPA).WithTableEntries(size))
	}
	// Figures 13-14: port sweep (3 ports covered above).
	for _, ports := range portCounts {
		add(config.Default().WithFilter(config.FilterPA).WithL1Ports(ports))
	}
	// Figures 15-16: buffer schemes.
	for _, s := range bufferSchemes {
		add(config.Default().WithFilter(s.kind).WithPrefetchBuffer(s.buffer))
	}
	// §5.2.1: 16KB comparison and the adaptive filter.
	add(config.Default16K().WithFilter(config.FilterNone))
	add(config.Default().WithFilter(config.FilterAdaptive))
	return cells
}

// CostModel builds the longest-runs-first estimator for the scheduler
// from whatever per-benchmark wall-time history the registry holds. With
// no registry (or no history yet) every job costs the same and sharding
// falls back to deterministic key order.
func (p *Params) CostModel() sched.CostModel {
	return sched.CostFromSnapshot(p.Metrics.Snapshot(), "experiments.sim.wall_ns.", 1)
}

// Prewarm runs the standard matrix concurrently with the given number of
// workers (<=0 selects GOMAXPROCS) and fills the cache. See PrewarmCtx.
func (p *Params) Prewarm(workers int) error {
	return p.PrewarmCtx(context.Background(), workers)
}

// PrewarmCtx is Prewarm with cancellation: when ctx expires, queued
// simulations are abandoned (the cache keeps whatever completed) and the
// context error is reported alongside any simulation failures (see
// runCells).
func (p *Params) PrewarmCtx(ctx context.Context, workers int) error {
	start := time.Now()
	// Each uncached key once, so the telemetry counts simulations.
	var cells []Cell
	pending := make(map[string]bool)
	for _, c := range p.StandardMatrix() {
		key := p.CacheKey(c.Bench, c.Config)
		if _, hit := p.cachedRun(key); !hit && !pending[key] {
			pending[key] = true
			cells = append(cells, c)
		}
	}
	err := p.runCells(ctx, cells, workers)

	failed := 0
	for key := range pending {
		if _, ok := p.cachedRun(key); !ok {
			failed++
		}
	}
	p.Metrics.Counter("experiments.prewarm.sims").Add(uint64(len(pending)))
	p.Metrics.Counter("experiments.prewarm.errors").Add(uint64(failed))
	p.Metrics.Histogram("experiments.prewarm.wall_ns").Observe(uint64(time.Since(start)))
	return err
}

// runCells runs the cells on the work-stealing scheduler, one job per
// distinct cache key, longest-first by the cost model, and fills each
// completed cell's Run. Every failure is collected and returned joined
// (errors.Join) with the context error, sorted by message so the report
// is deterministic regardless of steal order.
func (p *Params) runCells(ctx context.Context, cells []Cell, workers int) error {
	cost := p.CostModel()
	jobs := make([]sched.Job, len(cells))
	for i := range cells {
		c := &cells[i]
		jobs[i] = sched.Job{
			Key:  p.CacheKey(c.Bench, c.Config),
			Cost: cost(c.Bench),
			Run: func(ctx context.Context) (any, error) {
				return p.RunSim(ctx, c.Bench, c.Config)
			},
		}
	}
	results, ctxErr := sched.Run(ctx, jobs, sched.Options{Workers: workers, Metrics: p.Metrics})
	for i := range cells {
		if run, ok := results[jobs[i].Key].Value.(stats.Run); ok {
			cells[i].Run = run
		}
	}

	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, r.Err)
		}
	}
	if ctxErr != nil {
		// Unstarted jobs already report the context error; append it
		// BEFORE sorting so dedupJoin sees the copies together no matter
		// what other failure messages sort between them.
		errs = append(errs, ctxErr)
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return dedupJoin(errs)
}

// dedupJoin joins errors with duplicate messages collapsed globally (the
// cancellation sweep stamps every unstarted job with the same ctx error,
// and those copies need not sort adjacent to the appended original).
func dedupJoin(errs []error) error {
	seen := make(map[string]bool, len(errs))
	out := errs[:0]
	for _, e := range errs {
		if seen[e.Error()] {
			continue
		}
		seen[e.Error()] = true
		out = append(out, e)
	}
	return errors.Join(out...)
}

// Fingerprint serializes every cached run with stats.WriteRunSet — a
// byte-exact digest of the harness state. Two Prewarm invocations that
// are deterministic and complete (any worker count) must produce
// identical fingerprints.
func (p *Params) Fingerprint() []byte {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	var buf bytes.Buffer
	stats.WriteRunSet(&buf, p.cache)
	return buf.Bytes()
}

// CachedRuns reports how many simulations the cache currently holds.
func (p *Params) CachedRuns() int {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	return len(p.cache)
}
