// The textual results of §5.2.1 that have no figure of their own:
// per-prefetcher (NSP-only / SDP-only) filter effectiveness, the 16KB
// bigger-cache comparison, the static-filter baseline, and the adaptive
// filter the paper sketches as an advanced feature.
package experiments

import (
	"context"

	"repro/internal/config"
	"repro/internal/report"
	"repro/internal/stats"
)

func runExtras(ctx context.Context, p *Params) (*Table, error) {
	// NSP-only and SDP-only machines: no filter, then the PA filter.
	var cols []config.Config
	for _, hw := range []struct{ nsp, sdp bool }{{true, false}, {false, true}} {
		base := config.Default()
		base.Prefetch.EnableNSP = hw.nsp
		base.Prefetch.EnableSDP = hw.sdp
		base.Prefetch.EnableSoftware = false
		cols = append(cols, base.WithFilter(config.FilterNone), base.WithFilter(config.FilterPA))
	}
	const c8none, c8pa, c16, cadaptive = 4, 5, 6, 7
	cols = append(cols,
		config.Default8K().WithFilter(config.FilterNone), config.Default8K().WithFilter(config.FilterPA),
		config.Default16K().WithFilter(config.FilterNone), config.Default().WithFilter(config.FilterAdaptive))
	runs, err := p.grid(ctx, cols)
	if err != nil {
		return nil, err
	}
	static, err := p.staticRuns(ctx)
	if err != nil {
		return nil, err
	}
	meanIPC := func(j int) float64 { return columnMean(runs, j, stats.Run.IPC) }
	t := report.New("§5.2.1 extras (means over all benchmarks)",
		"experiment", "scenario", "good/bad", "bad reduction", "good reduction", "mean IPC", "vs baseline")

	// --- NSP-only and SDP-only filtering -----------------------------------
	for k, label := range []string{"NSP only", "SDP only"} {
		var gbRatios, badRed, goodRed []float64
		for _, row := range runs {
			none, pa := row[2*k], row[2*k+1]
			if none.Prefetches.Bad > 0 {
				gbRatios = append(gbRatios, float64(none.Prefetches.Good)/float64(none.Prefetches.Bad))
			}
			badRed = append(badRed, stats.Reduction(float64(none.Prefetches.Bad), float64(pa.Prefetches.Bad)))
			goodRed = append(goodRed, stats.Reduction(float64(none.Prefetches.Good), float64(pa.Prefetches.Good)))
		}
		t.AddRow(label, "PA filter",
			report.F2(stats.Mean(gbRatios)),
			report.Pct(stats.Mean(badRed)),
			report.Pct(stats.Mean(goodRed)),
			report.F2(meanIPC(2*k+1)),
			report.Pct(stats.Speedup(meanIPC(2*k), meanIPC(2*k+1))))
	}
	t.AddNote("paper: NSP good/bad=1.8, filter removes 97.5%% bad / 48.1%% good; SDP good/bad=11.7, removes 68.3%% bad / 61.9%% good")

	// --- 16KB L1 without a filter vs 8KB L1 with a 1KB history table -------
	ipc8none := meanIPC(c8none)
	t.AddRow("16KB L1, no filter", "vs 8KB none", "-", "-", "-",
		report.F2(meanIPC(c16)), report.Pct(stats.Speedup(ipc8none, meanIPC(c16))))
	t.AddRow("8KB L1 + 1KB table", "PA filter", "-", "-", "-",
		report.F2(meanIPC(c8pa)), report.Pct(stats.Speedup(ipc8none, meanIPC(c8pa))))
	t.AddNote("paper: doubling the L1 gives ~20%% but costs 8KB of SRAM; the 1KB history table is the better spend per byte")

	// --- Static (profile-driven) filter baseline ----------------------------
	var ipcStatic, badRedS, goodRedS []float64
	for i, st := range static {
		none := runs[i][c8none] // the 8KB machine is the default one
		ipcStatic = append(ipcStatic, st.IPC())
		badRedS = append(badRedS, stats.Reduction(float64(none.Prefetches.Bad), float64(st.Prefetches.Bad)))
		goodRedS = append(goodRedS, stats.Reduction(float64(none.Prefetches.Good), float64(st.Prefetches.Good)))
	}
	t.AddRow("static filter (profiled)", "PA keys", "-",
		report.Pct(stats.Mean(badRedS)), report.Pct(stats.Mean(goodRedS)),
		report.F2(stats.Mean(ipcStatic)),
		report.Pct(stats.Speedup(ipc8none, stats.Mean(ipcStatic))))
	t.AddNote("paper (citing Srinivasan et al.): static filtering gains 2-4%%; the dynamic filter should beat it")

	// --- Adaptive filter (engage only when accuracy is low) ----------------
	t.AddRow("adaptive filter", "PA, engage<50% acc", "-", "-", "-",
		report.F2(meanIPC(cadaptive)), report.Pct(stats.Speedup(ipc8none, meanIPC(cadaptive))))
	t.AddNote("adaptive filtering (§5.2.1 'advanced features') avoids filtering accurate prefetchers like SDP/fpppp")

	return t, nil
}
