// The harness's batch runner and its run cache.
//
// Every simulation is deterministic and independent, so the harness runs
// each batch of cells concurrently: RunCells is the one batch entry, and
// every grid experiment and Sweep goes through it. Jobs run on
// internal/sched's longest-first queue, ordered by the per-benchmark
// wall-time histograms the harness records under
// "experiments.sim.wall_ns.<bench>" in Params.Metrics. Only a batch that
// follows earlier simulations in the same process with a registry
// attached (pfexperiments -metrics) sees such a history; the first batch
// starts from an empty registry and runs in key order. Results land in
// the cache under the cache lock; determinism of the final cache state
// is independent of worker count and completion order (see
// TestRunCellsParallelDeterminism).
package experiments

import (
	"bytes"
	"context"
	"errors"
	"sort"
	"sync"

	"repro/internal/config"
	"repro/internal/sched"
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

// sharingCache returns a copy of p that reads and fills p's run cache,
// for an experiment that narrows the benchmarks or changes the seed.
func (p *Params) sharingCache() Params {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if p.cache == nil {
		p.cache = make(map[string]stats.Run)
	}
	return *p
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

// StandardMatrix enumerates the cells of the paper's figure grids, grid
// by grid and each grid column by column: the no-prefetch Table 2 runs,
// the three-filter machines at 8KB and 32KB, the table-size and port
// sweeps, the buffer schemes, and §5.2.1's 16KB and adaptive-filter
// machines. Narrow it by setting Params.Benchmarks.
func (p *Params) StandardMatrix() []Cell {
	var cols []config.Config
	for _, grid := range [][]config.Config{
		noPrefetchCols(),
		filterTriple(config.Default8K()),
		filterTriple(config.Default32K()),
		fig10.cols, fig13.cols, fig15.cols,
		{config.Default16K().WithFilter(config.FilterNone), config.Default().WithFilter(config.FilterAdaptive)},
	} {
		cols = append(cols, grid...)
	}
	var cells []Cell
	for _, cfg := range cols {
		for _, b := range p.benchmarks() {
			cells = append(cells, Cell{Bench: b, Filter: string(cfg.Filter.Kind), Config: cfg})
		}
	}
	return cells
}

// grid runs every benchmark on every machine of cols as one batch of
// cells (see RunCells) and returns runs[bench][col], benchmarks in
// Params.Benchmarks order.
func (p *Params) grid(ctx context.Context, cols []config.Config) ([][]stats.Run, error) {
	benches := p.benchmarks()
	cells := make([]Cell, 0, len(benches)*len(cols))
	for _, b := range benches {
		for _, cfg := range cols {
			cells = append(cells, Cell{Bench: b, Filter: string(cfg.Filter.Kind), Config: cfg})
		}
	}
	if err := p.RunCells(ctx, cells); err != nil {
		return nil, err
	}
	runs := make([][]stats.Run, len(benches))
	for i := range runs {
		runs[i] = make([]stats.Run, len(cols))
		for j := range cols {
			runs[i][j] = cells[i*len(cols)+j].Run
		}
	}
	return runs, nil
}

// column is column j of a grid: one machine's runs, in benchmark order.
func column(runs [][]stats.Run, j int) []stats.Run {
	out := make([]stats.Run, len(runs))
	for i, row := range runs {
		out[i] = row[j]
	}
	return out
}

// columnMean is the mean of m over column j of a grid.
func columnMean(runs [][]stats.Run, j int, m func(stats.Run) float64) float64 {
	return meanOf(column(runs, j), m)
}

// meanOf is the mean of m over runs.
func meanOf(runs []stats.Run, m func(stats.Run) float64) float64 {
	vs := make([]float64, len(runs))
	for i, r := range runs {
		vs[i] = m(r)
	}
	return stats.Mean(vs)
}

// CostModel builds the longest-runs-first estimator for the scheduler
// from whatever per-benchmark wall-time history the registry holds. With
// no registry (or no history yet) every job costs the same and the queue
// falls back to deterministic key order.
func (p *Params) CostModel() sched.CostModel {
	return sched.CostFromSnapshot(p.Metrics.Snapshot(), "experiments.sim.wall_ns.", 1)
}

// RunCells runs the cells through the run cache on the longest-first
// scheduler with p.Workers workers, one job per distinct cache key,
// ordered by the cost model, and fills each completed cell's Run. Once
// ctx is done, queued simulations are abandoned (the cache keeps
// whatever completed). Every failure is collected and returned joined
// (errors.Join) with the context error, sorted by message so the report
// is deterministic regardless of completion order.
func (p *Params) RunCells(ctx context.Context, cells []Cell) error {
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
	results, ctxErr := sched.Run(ctx, jobs, sched.Options{Workers: p.Workers, Metrics: p.Metrics})
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
// byte-exact digest of the harness state. Two complete RunCells batches
// over the same cells (any worker count) must produce identical
// fingerprints.
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
