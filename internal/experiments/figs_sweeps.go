// Figures 10-12 (history table size sweep), Figures 13-14 (L1 port
// sweep), both run with the PA-based filter per §5.3/§5.4, and Figures
// 15-16 (§5.5: the PA/PC filters with and without a dedicated 16-entry
// fully-associative prefetch buffer).
package experiments

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/config"
	"repro/internal/report"
	"repro/internal/stats"
)

// columnFigure is a figure of one metric over benchmarks × machines: a
// row per benchmark, a column per machine, and an optional summary row.
type columnFigure struct {
	title  string
	labels []string        // column headers after "benchmark"
	cols   []config.Config // the machine of each column
	// value is the cell of column j, given the benchmark's runs.
	value func(row []stats.Run, j int) float64
	// total names the summary row: "mean" (of each column's values),
	// "aggregate" (each column's Σbad/Σgood) or "" for none.
	total string
	note  string
}

// run renders the figure from the grid of its machines.
func (f columnFigure) run(ctx context.Context, p *Params) (*Table, error) {
	runs, err := p.grid(ctx, f.cols)
	if err != nil {
		return nil, err
	}
	t := report.New(f.title, append([]string{"benchmark"}, f.labels...)...)
	vals := make([][]float64, len(f.cols))
	for i, name := range p.benchmarks() {
		row := []string{name}
		for j := range f.cols {
			v := f.value(runs[i], j)
			vals[j] = append(vals[j], v)
			row = append(row, report.F2(v))
		}
		t.AddRow(row...)
	}
	if f.total != "" {
		row := []string{f.total}
		for j := range f.cols {
			v := stats.Mean(vals[j])
			if f.total == "aggregate" {
				v = aggregateRatio(runs, j)
			}
			row = append(row, report.F2(v))
		}
		t.AddRow(row...)
	}
	t.AddNote("%s", f.note)
	return t, nil
}

// metric turns a per-run value into a columnFigure cell.
func metric(m func(stats.Run) float64) func([]stats.Run, int) float64 {
	return func(row []stats.Run, j int) float64 { return m(row[j]) }
}

// tableSizes is the §5.3 sweep: 1024 entries (256B) to 16384 (4KB).
var tableSizes = []int{1024, 2048, 4096, 8192, 16384}

// tableSizeFigure is one §5.3 figure over the table-size sweep. A
// normalized figure divides each benchmark's values by its value at the
// 4096-entry default; the others end in a mean row.
func tableSizeFigure(title, note string, m func(stats.Run) float64, normalized bool) columnFigure {
	f := columnFigure{title: title, note: note, value: metric(m), total: "mean"}
	for _, size := range tableSizes {
		f.labels = append(f.labels, fmt.Sprintf("%dE", size))
		f.cols = append(f.cols, config.Default().WithFilter(config.FilterPA).WithTableEntries(size))
	}
	if normalized {
		def := slices.Index(tableSizes, 4096)
		f.total = ""
		f.value = func(row []stats.Run, j int) float64 {
			norm := m(row[def])
			if norm == 0 {
				norm = 1
			}
			return m(row[j]) / norm
		}
	}
	return f
}

// portFigure is one §5.4 figure over the port sweep: 3 ports/1 cycle,
// 4/2, 5/3 — WithL1Ports pairs each count with its latency.
func portFigure(title, note string, m func(stats.Run) float64, total string) columnFigure {
	f := columnFigure{title: title, note: note, value: metric(m), total: total}
	for _, ports := range []int{3, 4, 5} {
		f.labels = append(f.labels, fmt.Sprintf("%d ports", ports))
		f.cols = append(f.cols, config.Default().WithFilter(config.FilterPA).WithL1Ports(ports))
	}
	return f
}

// bufferFigure is one §5.5 figure over the four buffer schemes.
func bufferFigure(title, note string, m func(stats.Run) float64) columnFigure {
	f := columnFigure{title: title, note: note, value: metric(m), total: "mean"}
	for _, s := range []struct {
		label  string
		kind   config.FilterKind
		buffer bool
	}{
		{"PA", config.FilterPA, false},
		{"PA+buf", config.FilterPA, true},
		{"PC", config.FilterPC, false},
		{"PC+buf", config.FilterPC, true},
	} {
		f.labels = append(f.labels, s.label)
		f.cols = append(f.cols, config.Default().WithFilter(s.kind).WithPrefetchBuffer(s.buffer))
	}
	return f
}

func goodCount(r stats.Run) float64    { return float64(r.Prefetches.Good) }
func badCount(r stats.Run) float64     { return float64(r.Prefetches.Bad) }
func badGoodRatio(r stats.Run) float64 { return r.Prefetches.BadGoodRatio() }

var (
	fig10 = tableSizeFigure("Figure 10 — good prefetches vs table size (normalized to 4096 entries)",
		"paper: good prefetches generally increase with longer tables; gap/gzip/mcf are nearly insensitive", goodCount, true)
	fig11 = tableSizeFigure("Figure 11 — bad prefetches vs table size (normalized to 4096 entries)",
		"paper: bad prefetches can also rise with longer tables (first-touch entries are presumed good)", badCount, true)
	fig12 = tableSizeFigure("Figure 12 — IPC vs history table size (PA filter)",
		"paper: ~6% mean IPC gain from 2048 to 4096 entries; <1% beyond 4096", stats.Run.IPC, false)
	fig13 = portFigure("Figure 13 — bad/good ratio vs L1 ports (PA filter)",
		"paper: ratio drops ~6% from 3 to 4 ports, ~2% from 4 to 5 (fewer prefetches procrastinate)", badGoodRatio, "aggregate")
	fig14 = portFigure("Figure 14 — IPC vs L1 ports (PA filter)",
		"paper: ~4% mean speedup from 3 to 4 ports, <1% from 4 to 5 (longer latency offsets extra ports)", stats.Run.IPC, "mean")
	fig15 = bufferFigure("Figure 15 — bad/good ratio: filters with/without a 16-entry prefetch buffer",
		"paper: adding a dedicated prefetch buffer degrades the filters' effectiveness in most programs", badGoodRatio)
	fig16 = bufferFigure("Figure 16 — IPC: filters with/without a 16-entry prefetch buffer",
		"paper: the buffer costs ~9% IPC under PA and ~10% under PC; gcc is nearly unaffected", stats.Run.IPC)
)
