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

	"repro/internal/config"
	"repro/internal/filter"
	"repro/internal/frontend"
	"repro/internal/prefetch"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/tracefile"
	"repro/internal/workload"
)

// sweepExperiment is a comparison experiment: axis (nil: filters only)
// crossed with filters (nil: every sweepable backend) on the default
// machine, as one comparison table.
func sweepExperiment(id, title string, axis *Axis, filters []string) Experiment {
	return Experiment{ID: id, Title: title, Run: func(p *Params) (*Table, error) {
		cells, err := p.Sweep(context.Background(), axis, nil, filters, 0)
		if err != nil {
			return nil, err
		}
		return ComparisonTable(axis.TableTitle(), cells), nil
	}}
}

// zooSlice is the filter slice the generators and iprefetch experiments
// cross, which keeps the full suite tractable; pfexperiments and the
// serving layer expose the complete cross-products.
var zooSlice = []string{string(config.FilterPA), string(config.FilterPerceptron)}

// runTraces crosses the registered trace corpus with the filter backends.
func runTraces(p *Params) (*Table, error) {
	traces := tracefile.Registered()
	if len(traces) == 0 {
		t := report.New("Trace corpus crossed with filter backends")
		t.AddNote("no trace corpus registered; load one with pfexperiments -traces <manifest> (see docs/TRACES.md)")
		return t, nil
	}
	// Params is safely copyable (the cache lock is package-level); the
	// copy narrows the benchmarks to the corpus without touching the
	// caller's, and shares the caller's run cache once it has one.
	q := *p
	q.Benchmarks = traces
	cells, err := q.Sweep(context.Background(), nil, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	return ComparisonTable(TraceTitle, cells), nil
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
	// Apply sets the cell to run the (canonical) kind: its config, and
	// the label its name and row carry.
	Apply func(c *Cell, kind string)
}

// The three axes. FilterAxis is the filter dimension every sweep
// crosses; GeneratorAxis and IPrefetchAxis are the optional third axis.
var (
	FilterAxis = &Axis{
		Title: "Filter backends head to head (default machine)",
		Kinds: filter.Sweepable,
		Resolve: func(name string) (string, error) {
			kind, err := filter.Registry.Resolve(name)
			if kind == config.FilterStatic {
				return "", errors.New("the static filter needs a profiling run and cannot run in one pass")
			}
			return string(kind), err
		},
		Apply: func(c *Cell, kind string) {
			c.Config, c.Filter = c.Config.WithFilter(config.FilterKind(kind)), kind
		},
	}
	GeneratorAxis = &Axis{
		Title: "Generator zoo crossed with filters (default machine)",
		Kinds: prefetch.Sweepable,
		Resolve: func(name string) (string, error) {
			kind, err := prefetch.Registry.Resolve(name)
			return string(kind), err
		},
		Apply: func(c *Cell, kind string) {
			c.Config, c.Generator = c.Config.WithGenerator(config.PrefetchKind(kind)), kind
		},
	}
	IPrefetchAxis = &Axis{
		Title: "Instruction-prefetcher zoo crossed with filters (front end enabled)",
		Kinds: frontend.Registry.Kinds,
		Resolve: func(name string) (string, error) {
			kind, err := frontend.Registry.Resolve(name)
			return string(kind), err
		},
		Apply: func(c *Cell, kind string) {
			c.Config, c.IPrefetcher = c.Config.WithIPrefetch(config.IPrefetchKind(kind)), kind
		},
	}
)

// SweepAxis picks a sweep's optional third axis from its generator and
// instruction-prefetcher name lists, and returns the names to expand on
// it: no axis when both lists are empty. The two axes cannot cross:
// enabling the front end replaces the D-side generator mix, so the cells
// would be mislabelled.
func SweepAxis(generators, iprefetchers []string) (*Axis, []string, error) {
	switch {
	case len(generators) > 0 && len(iprefetchers) > 0:
		return nil, nil, errors.New("the generators and iprefetch axes cannot be combined in one sweep (the front end replaces the D-side generator mix)")
	case len(generators) > 0:
		return GeneratorAxis, generators, nil
	case len(iprefetchers) > 0:
		return IPrefetchAxis, iprefetchers, nil
	}
	return nil, nil, nil
}

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

// Cell is one comparison cell, from sweep expansion to report row: its
// coordinates, the machine it runs and, once run, its result.
type Cell struct {
	Bench string
	// Generator or IPrefetcher is the cell's axis value, set by the
	// axis's Apply; at most one is set, and neither without an axis.
	Generator, IPrefetcher string
	Filter                 string
	Config                 config.Config
	Run                    stats.Run
}

// Name labels the cell "<bench>/<filter>", "<bench>/<generator>/<filter>"
// or "<bench>/i:<iprefetcher>/<filter>".
func (c *Cell) Name() string {
	switch {
	case c.Generator != "":
		return c.Bench + "/" + c.Generator + "/" + c.Filter
	case c.IPrefetcher != "":
		return c.Bench + "/i:" + c.IPrefetcher + "/" + c.Filter
	}
	return c.Bench + "/" + c.Filter
}

// Sweep runs benchmarks × axis values × (none + filters) on the
// work-stealing scheduler and returns every cell, run, in (benchmark,
// value, filter) order. A nil axis runs the plain filter comparison.
// Values and filters expand through the axes (empty selects every
// sweepable kind); the unfiltered baseline leads each pair's filters
// whether or not it was named. Workers <= 0 selects GOMAXPROCS.
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
			pair := Cell{Bench: bench, Config: config.Default()}
			if axis != nil {
				axis.Apply(&pair, v)
			}
			for _, f := range sweep {
				c := pair
				FilterAxis.Apply(&c, f)
				cells = append(cells, c)
			}
		}
	}
	if err := p.runCells(ctx, cells, workers); err != nil {
		return nil, err
	}
	return cells, nil
}

// Rows derives the sorted comparison rows of run cells. Each row's IPC
// delta is against the unfiltered ("none") cell of the same (benchmark,
// axis value) — the last one, should there be several; a cell whose pair
// has none is its own baseline, with a zero delta.
func Rows(cells []Cell) []report.ComparisonRow {
	type pair struct{ bench, generator, iprefetcher string }
	base := make(map[pair]float64)
	for i := range cells {
		c := &cells[i]
		if config.FilterKind(c.Filter).Canonical() == config.FilterNone {
			base[pair{c.Bench, c.Generator, c.IPrefetcher}] = c.Run.IPC()
		}
	}
	rows := make([]report.ComparisonRow, len(cells))
	for i := range cells {
		c := &cells[i]
		ipc := c.Run.IPC()
		baseIPC, ok := base[pair{c.Bench, c.Generator, c.IPrefetcher}]
		if !ok {
			baseIPC = ipc
		}
		rows[i] = c.row(ipc - baseIPC)
	}
	report.SortComparison(rows)
	return rows
}

// row derives the cell's row. The metric block is the swept cache's:
// the L1I's instruction prefetches and fetch misses on an I-side cell,
// the L1D's prefetches and demand misses otherwise. The nil guard lets an
// I-side run from a store written before the front end existed degrade
// to zero counts instead of panicking.
func (c *Cell) row(ipcDelta float64) report.ComparisonRow {
	pf, misses, fetchMissRate := c.Run.Prefetches, c.Run.L1DemandMisses, 0.0
	if c.IPrefetcher != "" {
		var fe stats.Frontend
		if c.Run.Frontend != nil {
			fe = *c.Run.Frontend
		}
		pf, misses, fetchMissRate = fe.Prefetches, fe.FetchMisses, fe.FetchMissRate()
	}
	return report.ComparisonRow{
		Generator:     c.Generator,
		IPrefetcher:   c.IPrefetcher,
		Benchmark:     c.Bench,
		Filter:        c.Filter,
		Good:          pf.Good,
		Bad:           pf.Bad,
		Filtered:      pf.Filtered,
		Accuracy:      pf.GoodFraction(),
		Coverage:      pf.Coverage(misses),
		FetchMissRate: fetchMissRate,
		IPC:           c.Run.IPC(),
		IPCDelta:      ipcDelta,
	}
}

// ComparisonTable renders run cells as one comparison table.
func ComparisonTable(title string, cells []Cell) *Table {
	return report.Comparison(title, Rows(cells))
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
