// Figures 15-16: the §5.5 comparison of the PA/PC filters with and
// without a dedicated 16-entry fully-associative prefetch buffer.
package experiments

import (
	"repro/internal/config"
	"repro/internal/report"
	"repro/internal/stats"
)

// bufferSchemes enumerates the four §5.5 machines.
var bufferSchemes = []struct {
	label  string
	kind   config.FilterKind
	buffer bool
}{
	{"PA", config.FilterPA, false},
	{"PA+buf", config.FilterPA, true},
	{"PC", config.FilterPC, false},
	{"PC+buf", config.FilterPC, true},
}

func runBufferSweep(p *Params, metric func(stats.Run) float64, title, note string) (*Table, error) {
	cols := []string{"benchmark"}
	for _, s := range bufferSchemes {
		cols = append(cols, s.label)
	}
	t := report.New(title, cols...)
	means := make([][]float64, len(bufferSchemes))
	for _, name := range p.benchmarks() {
		row := []string{name}
		for i, s := range bufferSchemes {
			cfg := config.Default().WithFilter(s.kind).WithPrefetchBuffer(s.buffer)
			r, err := p.run(name, cfg)
			if err != nil {
				return nil, err
			}
			v := metric(r)
			row = append(row, report.F2(v))
			means[i] = append(means[i], v)
		}
		t.AddRow(row...)
	}
	meanRow := []string{"mean"}
	for i := range bufferSchemes {
		meanRow = append(meanRow, report.F2(stats.Mean(means[i])))
	}
	t.AddRow(meanRow...)
	t.AddNote("%s", note)
	return t, nil
}

func runFig15(p *Params) (*Table, error) {
	return runBufferSweep(p,
		func(r stats.Run) float64 { return r.Prefetches.BadGoodRatio() },
		"Figure 15 — bad/good ratio: filters with/without a 16-entry prefetch buffer",
		"paper: adding a dedicated prefetch buffer degrades the filters' effectiveness in most programs")
}

func runFig16(p *Params) (*Table, error) {
	return runBufferSweep(p,
		func(r stats.Run) float64 { return r.IPC() },
		"Figure 16 — IPC: filters with/without a 16-entry prefetch buffer",
		"paper: the buffer costs ~9%% IPC under PA and ~10%% under PC; gcc is nearly unaffected")
}
