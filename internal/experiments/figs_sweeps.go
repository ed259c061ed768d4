// Figures 10-12 (history table size sweep) and Figures 13-14 (L1 port
// sweep), both run with the PA-based filter per §5.3/§5.4.
package experiments

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/report"
	"repro/internal/stats"
)

// tableSizes is the §5.3 sweep: 1024 entries (256B) to 16384 (4KB).
var tableSizes = []int{1024, 2048, 4096, 8192, 16384}

// portCounts is the §5.4 sweep; WithL1Ports pairs each with its latency.
var portCounts = []int{3, 4, 5}

// sweepTables runs the PA filter across the table-size sweep and hands
// each (benchmark, size) result to collect.
func sweepTables(p *Params, collect func(bench string, size int, r stats.Run)) error {
	for _, name := range p.benchmarks() {
		for _, size := range tableSizes {
			cfg := config.Default().WithFilter(config.FilterPA).WithTableEntries(size)
			r, err := p.run(name, cfg)
			if err != nil {
				return err
			}
			collect(name, size, r)
		}
	}
	return nil
}

func sizeColumns() []string {
	cols := []string{"benchmark"}
	for _, s := range tableSizes {
		cols = append(cols, fmt.Sprintf("%dE", s))
	}
	return cols
}

// runFig10 reports good prefetch counts normalized to the 4096-entry
// default, per benchmark.
func runFig10(p *Params) (*Table, error) {
	t := report.New("Figure 10 — good prefetches vs table size (normalized to 4096 entries)", sizeColumns()...)
	counts := map[string]map[int]uint64{}
	if err := sweepTables(p, func(b string, s int, r stats.Run) {
		if counts[b] == nil {
			counts[b] = map[int]uint64{}
		}
		counts[b][s] = r.Prefetches.Good
	}); err != nil {
		return nil, err
	}
	for _, name := range p.benchmarks() {
		row := []string{name}
		norm := float64(counts[name][4096])
		if norm == 0 {
			norm = 1
		}
		for _, s := range tableSizes {
			row = append(row, report.F2(float64(counts[name][s])/norm))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: good prefetches generally increase with longer tables; gap/gzip/mcf are nearly insensitive")
	return t, nil
}

// runFig11 reports bad prefetch counts normalized to the 4096-entry default.
func runFig11(p *Params) (*Table, error) {
	t := report.New("Figure 11 — bad prefetches vs table size (normalized to 4096 entries)", sizeColumns()...)
	counts := map[string]map[int]uint64{}
	if err := sweepTables(p, func(b string, s int, r stats.Run) {
		if counts[b] == nil {
			counts[b] = map[int]uint64{}
		}
		counts[b][s] = r.Prefetches.Bad
	}); err != nil {
		return nil, err
	}
	for _, name := range p.benchmarks() {
		row := []string{name}
		norm := float64(counts[name][4096])
		if norm == 0 {
			norm = 1
		}
		for _, s := range tableSizes {
			row = append(row, report.F2(float64(counts[name][s])/norm))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: bad prefetches can also rise with longer tables (first-touch entries are presumed good)")
	return t, nil
}

// runFig12 reports IPC across the table-size sweep.
func runFig12(p *Params) (*Table, error) {
	t := report.New("Figure 12 — IPC vs history table size (PA filter)", sizeColumns()...)
	ipc := map[string]map[int]float64{}
	if err := sweepTables(p, func(b string, s int, r stats.Run) {
		if ipc[b] == nil {
			ipc[b] = map[int]float64{}
		}
		ipc[b][s] = r.IPC()
	}); err != nil {
		return nil, err
	}
	means := map[int][]float64{}
	for _, name := range p.benchmarks() {
		row := []string{name}
		for _, s := range tableSizes {
			row = append(row, report.F2(ipc[name][s]))
			means[s] = append(means[s], ipc[name][s])
		}
		t.AddRow(row...)
	}
	meanRow := []string{"mean"}
	for _, s := range tableSizes {
		meanRow = append(meanRow, report.F2(stats.Mean(means[s])))
	}
	t.AddRow(meanRow...)
	t.AddNote("paper: ~6%% mean IPC gain from 2048 to 4096 entries; <1%% beyond 4096")
	return t, nil
}

// runFig13 reports bad/good prefetch ratios across the port sweep
// (3 ports/1 cycle, 4/2, 5/3 — §5.4's physical-design pairing).
func runFig13(p *Params) (*Table, error) {
	t := report.New("Figure 13 — bad/good ratio vs L1 ports (PA filter)",
		"benchmark", "3 ports", "4 ports", "5 ports")
	aggBad := map[int]uint64{}
	aggGood := map[int]uint64{}
	for _, name := range p.benchmarks() {
		row := []string{name}
		for _, ports := range portCounts {
			cfg := config.Default().WithFilter(config.FilterPA).WithL1Ports(ports)
			r, err := p.run(name, cfg)
			if err != nil {
				return nil, err
			}
			row = append(row, report.F2(r.Prefetches.BadGoodRatio()))
			aggBad[ports] += r.Prefetches.Bad
			aggGood[ports] += r.Prefetches.Good
		}
		t.AddRow(row...)
	}
	agg := func(ports int) string {
		return report.F2(stats.SafeRatio(float64(aggBad[ports]), float64(aggGood[ports])))
	}
	t.AddRow("aggregate", agg(3), agg(4), agg(5))
	t.AddNote("paper: ratio drops ~6%% from 3 to 4 ports, ~2%% from 4 to 5 (fewer prefetches procrastinate)")
	return t, nil
}

// runFig14 reports IPC across the port sweep.
func runFig14(p *Params) (*Table, error) {
	t := report.New("Figure 14 — IPC vs L1 ports (PA filter)",
		"benchmark", "3 ports", "4 ports", "5 ports")
	means := map[int][]float64{}
	for _, name := range p.benchmarks() {
		row := []string{name}
		for _, ports := range portCounts {
			cfg := config.Default().WithFilter(config.FilterPA).WithL1Ports(ports)
			r, err := p.run(name, cfg)
			if err != nil {
				return nil, err
			}
			row = append(row, report.F2(r.IPC()))
			means[ports] = append(means[ports], r.IPC())
		}
		t.AddRow(row...)
	}
	t.AddRow("mean", report.F2(stats.Mean(means[3])), report.F2(stats.Mean(means[4])), report.F2(stats.Mean(means[5])))
	t.AddNote("paper: ~4%% mean speedup from 3 to 4 ports, <1%% from 4 to 5 (longer latency offsets extra ports)")
	return t, nil
}
