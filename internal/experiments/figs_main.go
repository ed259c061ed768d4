// Figures 1-2 (motivation) and Figures 4-9 (main evaluation at 8KB and
// 32KB L1 caches).
package experiments

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/report"
	"repro/internal/stats"
)

// filterTriple is the machines of Figures 4-9: no filtering, the PA
// filter and the PC filter on one base machine.
func filterTriple(base config.Config) []config.Config {
	return []config.Config{base.WithFilter(config.FilterNone), base.WithFilter(config.FilterPA), base.WithFilter(config.FilterPC)}
}

// runFig1 reproduces the good/bad prefetch distribution with no filtering:
// both counts normalized to total prefetches per benchmark.
func runFig1(ctx context.Context, p *Params) (*Table, error) {
	runs, err := p.grid(ctx, []config.Config{config.Default()})
	if err != nil {
		return nil, err
	}
	t := report.New("Figure 1 — effectiveness of prefetches (no filtering)",
		"benchmark", "good", "bad", "good frac", "bad frac")
	var fracs []float64
	for i, name := range p.benchmarks() {
		r := runs[i][0]
		total := r.Prefetches.Classified()
		if total == 0 {
			t.AddRow(name, "0", "0", "-", "-")
			continue
		}
		gf := float64(r.Prefetches.Good) / float64(total)
		t.AddRow(name, report.I(r.Prefetches.Good), report.I(r.Prefetches.Bad),
			report.Pct(gf), report.Pct(1-gf))
		fracs = append(fracs, 1-gf)
	}
	t.AddNote("mean bad fraction: %s (paper: 48%%; >50%% bad in 4 of 10 benchmarks)", report.Pct(stats.Mean(fracs)))
	return t, nil
}

// runFig2 reproduces the L1 traffic split between demand and prefetch
// accesses with no filtering.
func runFig2(ctx context.Context, p *Params) (*Table, error) {
	runs, err := p.grid(ctx, []config.Config{config.Default()})
	if err != nil {
		return nil, err
	}
	t := report.New("Figure 2 — traffic distribution of the L1 cache (no filtering)",
		"benchmark", "demand", "prefetch fills", "fills/demand", "probes/demand")
	var ratios, probeRatios []float64
	for i, name := range p.benchmarks() {
		r := runs[i][0]
		ratio := r.Traffic.PrefetchRatio()
		// Duplicate squashing is free of *penalty* but each squashed
		// candidate still probes the L1 tag array; counting probes is the
		// closer match to the paper's "traffic in terms of cache lines".
		probes := stats.SafeRatio(
			float64(r.Traffic.PrefetchAccesses+r.Prefetches.Squashed),
			float64(r.Traffic.DemandAccesses))
		ratios = append(ratios, ratio)
		probeRatios = append(probeRatios, probes)
		t.AddRow(name, report.I(r.Traffic.DemandAccesses), report.I(r.Traffic.PrefetchAccesses),
			report.F2(ratio), report.F2(probes))
	}
	t.AddNote("mean prefetch/demand: %s fills, %s tag probes (paper: 0.41, max 0.57, min 0.29)",
		report.F2(stats.Mean(ratios)), report.F2(stats.Mean(probeRatios)))
	return t, nil
}

// runFigCounts reproduces Figures 4/7: bad and good prefetch counts for
// the three scenarios, normalized to the good count without filtering.
func runFigCounts(ctx context.Context, p *Params, base config.Config, label string) (*Table, error) {
	runs, err := p.grid(ctx, filterTriple(base))
	if err != nil {
		return nil, err
	}
	t := report.New(fmt.Sprintf("Figure — prefetch counts, %s D-cache (normalized to good/none)", label),
		"benchmark", "bad none", "bad PA", "bad PC", "good none", "good PA", "good PC")
	var badPA, badPC, goodPA, goodPC, trafPA, trafPC []float64
	for i, name := range p.benchmarks() {
		none, pa, pc := runs[i][0], runs[i][1], runs[i][2]
		norm := float64(none.Prefetches.Good)
		if norm == 0 {
			norm = 1
		}
		n := func(v uint64) string { return report.F2(float64(v) / norm) }
		t.AddRow(name,
			n(none.Prefetches.Bad), n(pa.Prefetches.Bad), n(pc.Prefetches.Bad),
			n(none.Prefetches.Good), n(pa.Prefetches.Good), n(pc.Prefetches.Good))
		badPA = append(badPA, stats.Reduction(float64(none.Prefetches.Bad), float64(pa.Prefetches.Bad)))
		badPC = append(badPC, stats.Reduction(float64(none.Prefetches.Bad), float64(pc.Prefetches.Bad)))
		goodPA = append(goodPA, stats.Reduction(float64(none.Prefetches.Good), float64(pa.Prefetches.Good)))
		goodPC = append(goodPC, stats.Reduction(float64(none.Prefetches.Good), float64(pc.Prefetches.Good)))
		trafPA = append(trafPA, stats.Reduction(float64(none.Traffic.PrefetchAccesses), float64(pa.Traffic.PrefetchAccesses)))
		trafPC = append(trafPC, stats.Reduction(float64(none.Traffic.PrefetchAccesses), float64(pc.Traffic.PrefetchAccesses)))
	}
	t.AddNote("mean bad-prefetch reduction: PA %s, PC %s (paper %s: ~97%%/98%% at 8KB, 91%%/92%% at 32KB)",
		report.Pct(stats.Mean(badPA)), report.Pct(stats.Mean(badPC)), label)
	t.AddNote("mean good-prefetch reduction: PA %s, PC %s (paper: ~51%%/48%% at 8KB, 35%%/27%% at 32KB)",
		report.Pct(stats.Mean(goodPA)), report.Pct(stats.Mean(goodPC)))
	t.AddNote("mean prefetch-traffic reduction: PA %s, PC %s (paper: 75%%/74%% at 8KB, 52%%/47%% at 32KB)",
		report.Pct(stats.Mean(trafPA)), report.Pct(stats.Mean(trafPC)))
	return t, nil
}

// runFigRatio reproduces Figures 5/8: bad/good prefetch ratios for the
// three scenarios and the filters' mean ratio reduction.
func runFigRatio(ctx context.Context, p *Params, base config.Config, label string) (*Table, error) {
	runs, err := p.grid(ctx, filterTriple(base))
	if err != nil {
		return nil, err
	}
	t := report.New(fmt.Sprintf("Figure — bad/good prefetch ratios, %s D-cache", label),
		"benchmark", "none", "PA", "PC")
	var redPA, redPC []float64
	for i, name := range p.benchmarks() {
		none, pa, pc := runs[i][0], runs[i][1], runs[i][2]
		rn, rpa, rpc := none.Prefetches.BadGoodRatio(), pa.Prefetches.BadGoodRatio(), pc.Prefetches.BadGoodRatio()
		t.AddRow(name, report.F2(rn), report.F2(rpa), report.F2(rpc))
		redPA = append(redPA, stats.Reduction(rn, rpa))
		redPC = append(redPC, stats.Reduction(rn, rpc))
	}
	agg := func(j int) float64 { return aggregateRatio(runs, j) }
	t.AddRow("aggregate", report.F2(agg(0)), report.F2(agg(1)), report.F2(agg(2)))
	t.AddNote("mean per-benchmark ratio reduction: PA %s, PC %s; benchmarks whose good count the filter"+
		" drives to ~0 (gcc, perimeter) make this mean unstable — the aggregate row (Σbad/Σgood) is the robust view",
		report.Pct(stats.Mean(redPA)), report.Pct(stats.Mean(redPC)))
	t.AddNote("aggregate ratio reduction: PA %s, PC %s (paper: 70%%/91%% at 8KB, 75%%/93%% at 32KB)",
		report.Pct(stats.Reduction(agg(0), agg(1))), report.Pct(stats.Reduction(agg(0), agg(2))))
	return t, nil
}

// aggregateRatio is column j's Σbad/Σgood over every benchmark of a grid.
func aggregateRatio(runs [][]stats.Run, j int) float64 {
	var bad, good uint64
	for _, row := range runs {
		bad += row[j].Prefetches.Bad
		good += row[j].Prefetches.Good
	}
	return stats.SafeRatio(float64(bad), float64(good))
}

// runFigIPC reproduces Figures 6/9: IPC for the three scenarios.
func runFigIPC(ctx context.Context, p *Params, base config.Config, label string) (*Table, error) {
	runs, err := p.grid(ctx, filterTriple(base))
	if err != nil {
		return nil, err
	}
	t := report.New(fmt.Sprintf("Figure — IPC comparison, %s D-cache", label),
		"benchmark", "none", "PA", "PC", "PA speedup", "PC speedup")
	var spPA, spPC []float64
	for i, name := range p.benchmarks() {
		none, pa, pc := runs[i][0], runs[i][1], runs[i][2]
		sa := stats.Speedup(none.IPC(), pa.IPC())
		sc := stats.Speedup(none.IPC(), pc.IPC())
		spPA = append(spPA, sa)
		spPC = append(spPC, sc)
		t.AddRow(name, report.F2(none.IPC()), report.F2(pa.IPC()), report.F2(pc.IPC()),
			report.Pct(sa), report.Pct(sc))
	}
	t.AddNote("mean IPC speedup: PA %s, PC %s (paper: 8.2%%/9.1%% at 8KB, 7.0%%/8.1%% at 32KB)",
		report.Pct(stats.Mean(spPA)), report.Pct(stats.Mean(spPC)))
	return t, nil
}
