// The comparison sweep: the paper's evaluation shape — one machine, one
// training signal, only the filter differs — as one axis-product
// pipeline. A sweep crosses benchmarks × axis values × (none + filters),
// where the optional axis is the generator zoo (internal/prefetch) or
// the instruction-prefetcher zoo (internal/frontend), and pairs every
// cell with the unfiltered cell of its (benchmark, axis value) for the
// IPC delta. The filters, generators, iprefetch and traces experiments,
// pfexperiments' comparison modes and the pfserved sweep axes are all
// declarations over it.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/config"
	"repro/internal/filter"
	"repro/internal/frontend"
	"repro/internal/prefetch"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tracefile"
	"repro/internal/workload"
)

func init() {
	// The generators and iprefetch experiments cross a representative
	// filter slice to keep the full suite tractable; pfexperiments and the
	// serving layer expose the complete cross-products.
	slice := []string{string(config.FilterPA), string(config.FilterPerceptron)}
	for _, e := range []struct {
		id, title string
		axis      *Axis
		filters   []string
	}{
		{"filters", "Pollution-filter backends head to head (internal/filter zoo)", nil, nil},
		{"generators", "Prefetch-generator zoo crossed with the filter zoo (internal/prefetch registry)", GeneratorAxis, slice},
		{"iprefetch", "Instruction-prefetcher zoo crossed with the filter zoo (internal/frontend registry)", IPrefetchAxis, slice},
	} {
		e := e
		register(Experiment{ID: e.id, Title: e.title, Run: func(p *Params) (*Table, error) {
			cells, err := p.Sweep(context.Background(), e.axis, nil, e.filters, 0)
			if err != nil {
				return nil, err
			}
			return ComparisonTable(e.axis.TableTitle(), e.axis, cells), nil
		}})
	}
	register(Experiment{
		ID:    "traces",
		Title: "Trace corpus crossed with filter backends (real-trace replay)",
		Run: func(p *Params) (*Table, error) {
			traces := tracefile.Registered()
			if len(traces) == 0 {
				t := report.New("Trace corpus crossed with filter backends")
				t.AddNote("no trace corpus registered; load one with pfexperiments -traces <manifest> (see docs/TRACES.md)")
				return t, nil
			}
			// Params is safely copyable (the cache lock is package-level);
			// the copy narrows the benchmarks to the corpus without touching
			// the caller's. Results still share the process-wide run memo.
			q := *p
			q.Benchmarks = traces
			cells, err := q.Sweep(context.Background(), nil, nil, nil, 0)
			if err != nil {
				return nil, err
			}
			return ComparisonTable(TraceTitle, nil, cells), nil
		},
	})
}

// TraceTitle heads the comparison table of a trace corpus.
const TraceTitle = "Trace corpus crossed with filters (default machine)"

// Axis is one sweepable backend dimension of the machine.
type Axis struct {
	// Title heads the axis's comparison table.
	Title string
	// Kinds lists every sweepable kind: what an empty or ["all"] name
	// list selects.
	Kinds func() []string
	// Resolve canonicalises a name, or rejects it with an error listing
	// the registered kinds.
	Resolve func(name string) (string, error)
	// Apply returns cfg running the (canonical) kind.
	Apply func(cfg config.Config, kind string) config.Config
}

// The three axes. FilterAxis is the filter dimension every sweep
// crosses; GeneratorAxis and IPrefetchAxis are the optional third axis.
var (
	FilterAxis = &Axis{
		Title: "Filter backends head to head (default machine)",
		Kinds: filter.Sweepable,
		Resolve: func(name string) (string, error) {
			kind := config.FilterKind(name).Canonical()
			if kind == config.FilterStatic {
				return "", errors.New("the static filter needs a profiling run and cannot join the sweep")
			}
			if !filter.Registered(kind) {
				return "", fmt.Errorf("unknown filter %q (registered backends: %v)", name, filter.Kinds())
			}
			return string(kind), nil
		},
		Apply: func(cfg config.Config, kind string) config.Config {
			return cfg.WithFilter(config.FilterKind(kind))
		},
	}
	GeneratorAxis = &Axis{
		Title: "Generator zoo crossed with filters (default machine)",
		Kinds: prefetch.Sweepable,
		Resolve: func(name string) (string, error) {
			kind := config.PrefetchKind(name).Canonical()
			if !prefetch.Registered(kind) {
				return "", fmt.Errorf("unknown generator %q (registered generators: %v)", name, prefetch.Kinds())
			}
			return string(kind), nil
		},
		Apply: func(cfg config.Config, kind string) config.Config {
			return cfg.WithGenerator(config.PrefetchKind(kind))
		},
	}
	IPrefetchAxis = &Axis{
		Title: "Instruction-prefetcher zoo crossed with filters (front end enabled)",
		Kinds: frontend.Sweepable,
		Resolve: func(name string) (string, error) {
			kind := config.IPrefetchKind(name).Canonical()
			if !frontend.Registered(kind) {
				return "", fmt.Errorf("unknown instruction prefetcher %q (registered backends: %v)", name, frontend.Kinds())
			}
			return string(kind), nil
		},
		Apply: func(cfg config.Config, kind string) config.Config {
			return cfg.WithIPrefetch(config.IPrefetchKind(kind))
		},
	}
)

// TableTitle is the title of a sweep's comparison table over the axis;
// a nil axis is the plain filter comparison.
func (a *Axis) TableTitle() string {
	if a == nil {
		return FilterAxis.Title
	}
	return a.Title
}

// Expand resolves names on the axis. Empty or ["all"] selects every
// sweepable kind; otherwise each name is canonicalised and duplicates
// are dropped in first-occurrence order.
func (a *Axis) Expand(names []string) ([]string, error) {
	if len(names) == 0 || len(names) == 1 && names[0] == "all" {
		return a.Kinds(), nil
	}
	return expand(names, a.Resolve)
}

// ExpandTraces resolves names to registered trace benchmarks the same
// way: empty or ["all"] selects the whole registered corpus, names
// resolve with or without the "trace:" prefix, and an unknown name is an
// error listing the corpus.
func ExpandTraces(names []string) ([]string, error) {
	if len(names) == 0 || len(names) == 1 && names[0] == "all" {
		if reg := tracefile.Registered(); len(reg) > 0 {
			return reg, nil
		}
		return nil, errors.New("no trace corpus registered (load a manifest: pfexperiments -traces, pfserved -trace-manifest)")
	}
	return expand(names, func(name string) (string, error) {
		full := name
		if !tracefile.IsTraceBench(full) {
			full = tracefile.BenchPrefix + name
		}
		if _, ok := workload.ByName(full); !ok {
			return "", fmt.Errorf("unknown trace %q (registered traces: %v)", name, tracefile.Registered())
		}
		return full, nil
	})
}

// expand resolves every name, dropping duplicates of a resolved value in
// first-occurrence order.
func expand(names []string, resolve func(string) (string, error)) ([]string, error) {
	out := make([]string, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		v, err := resolve(name)
		if err != nil {
			return nil, err
		}
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out, nil
}

// Cell is one finished comparison cell: its coordinates, its run, and
// the IPC of its baseline.
type Cell struct {
	Bench string
	// Value is the cell's axis kind; empty without an axis.
	Value  string
	Filter string
	Run    stats.Run
	// BaseIPC is the IPC the cell's delta is taken against; see
	// PairBaselines.
	BaseIPC float64
}

// Sweep runs benchmarks × axis values × (none + filters) on the
// work-stealing scheduler and returns every cell beside its baseline, in
// (benchmark, value, filter) order. A nil axis runs the plain filter
// comparison. Values and filters expand through the axes (empty selects
// every sweepable kind); the unfiltered baseline leads each pair's
// filters whether or not it was named. Workers <= 0 selects GOMAXPROCS.
func (p *Params) Sweep(ctx context.Context, axis *Axis, values, filters []string, workers int) ([]Cell, error) {
	vals := []string{""}
	if axis != nil {
		var err error
		if vals, err = axis.Expand(values); err != nil {
			return nil, err
		}
	}
	kinds, err := FilterAxis.Expand(filters)
	if err != nil {
		return nil, err
	}
	// The baseline is a cell like any other; drop it from the requested
	// kinds so it runs once, first.
	sweep := []string{string(config.FilterNone)}
	for _, k := range kinds {
		if k != string(config.FilterNone) {
			sweep = append(sweep, k)
		}
	}

	var cells []Cell
	for _, bench := range p.benchmarks() {
		for _, v := range vals {
			for _, f := range sweep {
				cells = append(cells, Cell{Bench: bench, Value: v, Filter: f})
			}
		}
	}
	key := func(c Cell) string { return c.Bench + "|" + c.Value + "|" + c.Filter }
	cost := p.costModel()
	jobs := make([]sched.Job, len(cells))
	for i, c := range cells {
		cfg := config.Default()
		if axis != nil {
			cfg = axis.Apply(cfg, c.Value)
		}
		cfg = FilterAxis.Apply(cfg, c.Filter)
		bench := c.Bench
		jobs[i] = sched.Job{
			Key:  key(c),
			Cost: cost(bench),
			Run: func(ctx context.Context) (any, error) {
				return p.runCtx(ctx, bench, cfg)
			},
		}
	}
	results, ctxErr := sched.Run(ctx, jobs, sched.Options{Workers: workers, Metrics: p.Metrics})
	if ctxErr != nil {
		return nil, ctxErr
	}
	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, r.Err)
		}
	}
	if len(errs) > 0 {
		sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
		return nil, dedupJoin(errs)
	}
	for i := range cells {
		cells[i].Run = results[key(cells[i])].Value.(stats.Run)
	}
	PairBaselines(cells)
	return cells, nil
}

// PairBaselines sets every cell's BaseIPC to the IPC of the unfiltered
// ("none") cell of the same (benchmark, value) — the last one, should
// there be several. A cell whose pair has none is its own baseline: its
// IPC delta is zero.
func PairBaselines(cells []Cell) {
	type pair struct{ bench, value string }
	base := make(map[pair]float64)
	for _, c := range cells {
		if config.FilterKind(c.Filter).Canonical() == config.FilterNone {
			base[pair{c.Bench, c.Value}] = c.Run.IPC()
		}
	}
	for i := range cells {
		ipc, ok := base[pair{cells[i].Bench, cells[i].Value}]
		if !ok {
			ipc = cells[i].Run.IPC()
		}
		cells[i].BaseIPC = ipc
	}
}

// FilterRows derives the sorted head-to-head rows. Coverage counts the
// demand misses prefetching hid relative to the misses that remain:
// good / (good + L1 demand misses).
func FilterRows(cells []Cell) []report.FilterComparisonRow {
	rows := make([]report.FilterComparisonRow, len(cells))
	for i, c := range cells {
		rows[i] = filterRow(c)
	}
	report.SortFilterComparison(rows)
	return rows
}

func filterRow(c Cell) report.FilterComparisonRow {
	r := c.Run
	cov := 0.0
	if denom := r.Prefetches.Good + r.L1DemandMisses; denom > 0 {
		cov = float64(r.Prefetches.Good) / float64(denom)
	}
	return report.FilterComparisonRow{
		Benchmark: c.Bench,
		Filter:    c.Filter,
		Good:      r.Prefetches.Good,
		Bad:       r.Prefetches.Bad,
		Filtered:  r.Prefetches.Filtered,
		Accuracy:  r.Prefetches.GoodFraction(),
		Coverage:  cov,
		IPC:       r.IPC(),
		IPCDelta:  r.IPC() - c.BaseIPC,
	}
}

// GeneratorRows derives the sorted (generator × filter) rows: the
// head-to-head metrics attributed to the cell's generator.
func GeneratorRows(cells []Cell) []report.GeneratorComparisonRow {
	rows := make([]report.GeneratorComparisonRow, len(cells))
	for i, c := range cells {
		rows[i] = report.GeneratorComparisonRow{Generator: c.Value, FilterComparisonRow: filterRow(c)}
	}
	report.SortGeneratorComparison(rows)
	return rows
}

// IPrefetchRows derives the sorted I-side (iprefetcher × filter) rows.
// The Frontend block is present by construction (the config enabled the
// front end); the nil guard lets a run from a store written before the
// front end existed degrade to zero I-side counts instead of panicking.
func IPrefetchRows(cells []Cell) []report.IPrefetchComparisonRow {
	rows := make([]report.IPrefetchComparisonRow, len(cells))
	for i, c := range cells {
		row := report.IPrefetchComparisonRow{
			IPrefetcher: c.Value,
			Benchmark:   c.Bench,
			Filter:      c.Filter,
			IPC:         c.Run.IPC(),
			IPCDelta:    c.Run.IPC() - c.BaseIPC,
		}
		if fe := c.Run.Frontend; fe != nil {
			row.Good = fe.Prefetches.Good
			row.Bad = fe.Prefetches.Bad
			row.Filtered = fe.Prefetches.Filtered
			row.FetchMissRate = fe.FetchMissRate()
			row.Pollution = fe.Pollution()
		}
		rows[i] = row
	}
	report.SortIPrefetchComparison(rows)
	return rows
}

// ComparisonTable renders cells as the comparison table of their axis
// (nil: the filter head-to-head table).
func ComparisonTable(title string, axis *Axis, cells []Cell) *Table {
	switch axis {
	case GeneratorAxis:
		return report.GeneratorComparison(title, GeneratorRows(cells))
	case IPrefetchAxis:
		return report.IPrefetchComparison(title, IPrefetchRows(cells))
	}
	return report.FilterComparison(title, FilterRows(cells))
}

// TraceCorpusTable renders a registered manifest as a report table — the
// corpus summary pfexperiments prints above the comparison.
func TraceCorpusTable(m tracefile.Manifest) *Table {
	t := report.New("Trace corpus", "benchmark", "file", "records", "format", "sha256")
	for _, e := range m.Traces {
		t.AddRow(tracefile.BenchPrefix+e.Name, e.File, report.I(e.Records), fmt.Sprintf("v%d", e.FormatVersion), e.SHA256)
	}
	t.AddNote("sha256 is the chunk-size-independent PFTC stream fingerprint (docs/TRACES.md)")
	return t
}
