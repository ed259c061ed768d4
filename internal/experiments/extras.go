// The textual results of §5.2.1 that have no figure of their own:
// per-prefetcher (NSP-only / SDP-only) filter effectiveness, the 16KB
// bigger-cache comparison, the static-filter baseline, and the adaptive
// filter the paper sketches as an advanced feature.
package experiments

import (
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
)

func runExtras(p *Params) (*Table, error) {
	t := report.New("§5.2.1 extras (means over all benchmarks)",
		"experiment", "scenario", "good/bad", "bad reduction", "good reduction", "mean IPC", "vs baseline")

	// --- NSP-only and SDP-only filtering -----------------------------------
	for _, hw := range []struct {
		label    string
		nsp, sdp bool
	}{{"NSP only", true, false}, {"SDP only", false, true}} {
		base := config.Default()
		base.Prefetch.EnableNSP = hw.nsp
		base.Prefetch.EnableSDP = hw.sdp
		base.Prefetch.EnableSoftware = false

		var gbRatios, badRed, goodRed, ipcNone, ipcPA []float64
		for _, name := range p.benchmarks() {
			none, err := p.run(name, base.WithFilter(config.FilterNone))
			if err != nil {
				return nil, err
			}
			pa, err := p.run(name, base.WithFilter(config.FilterPA))
			if err != nil {
				return nil, err
			}
			if none.Prefetches.Bad > 0 {
				gbRatios = append(gbRatios, float64(none.Prefetches.Good)/float64(none.Prefetches.Bad))
			}
			badRed = append(badRed, stats.Reduction(float64(none.Prefetches.Bad), float64(pa.Prefetches.Bad)))
			goodRed = append(goodRed, stats.Reduction(float64(none.Prefetches.Good), float64(pa.Prefetches.Good)))
			ipcNone = append(ipcNone, none.IPC())
			ipcPA = append(ipcPA, pa.IPC())
		}
		t.AddRow(hw.label, "PA filter",
			report.F2(stats.Mean(gbRatios)),
			report.Pct(stats.Mean(badRed)),
			report.Pct(stats.Mean(goodRed)),
			report.F2(stats.Mean(ipcPA)),
			report.Pct(stats.Speedup(stats.Mean(ipcNone), stats.Mean(ipcPA))))
	}
	t.AddNote("paper: NSP good/bad=1.8, filter removes 97.5%% bad / 48.1%% good; SDP good/bad=11.7, removes 68.3%% bad / 61.9%% good")

	// --- 16KB L1 without a filter vs 8KB L1 with a 1KB history table -------
	var ipc8none, ipc8pa, ipc16 []float64
	for _, name := range p.benchmarks() {
		r8n, err := p.run(name, config.Default8K().WithFilter(config.FilterNone))
		if err != nil {
			return nil, err
		}
		r8p, err := p.run(name, config.Default8K().WithFilter(config.FilterPA))
		if err != nil {
			return nil, err
		}
		r16, err := p.run(name, config.Default16K().WithFilter(config.FilterNone))
		if err != nil {
			return nil, err
		}
		ipc8none = append(ipc8none, r8n.IPC())
		ipc8pa = append(ipc8pa, r8p.IPC())
		ipc16 = append(ipc16, r16.IPC())
	}
	t.AddRow("16KB L1, no filter", "vs 8KB none", "-", "-", "-",
		report.F2(stats.Mean(ipc16)), report.Pct(stats.Speedup(stats.Mean(ipc8none), stats.Mean(ipc16))))
	t.AddRow("8KB L1 + 1KB table", "PA filter", "-", "-", "-",
		report.F2(stats.Mean(ipc8pa)), report.Pct(stats.Speedup(stats.Mean(ipc8none), stats.Mean(ipc8pa))))
	t.AddNote("paper: doubling the L1 gives ~20%% but costs 8KB of SRAM; the 1KB history table is the better spend per byte")

	// --- Static (profile-driven) filter baseline ----------------------------
	var ipcStatic, badRedS, goodRedS []float64
	for _, name := range p.benchmarks() {
		none, err := p.run(name, config.Default().WithFilter(config.FilterNone))
		if err != nil {
			return nil, err
		}
		st, err := sim.RunStatic(p.simOptions(name, config.Default()), core.PAKey, 0.5)
		if err != nil {
			return nil, err
		}
		ipcStatic = append(ipcStatic, st.IPC())
		badRedS = append(badRedS, stats.Reduction(float64(none.Prefetches.Bad), float64(st.Prefetches.Bad)))
		goodRedS = append(goodRedS, stats.Reduction(float64(none.Prefetches.Good), float64(st.Prefetches.Good)))
	}
	t.AddRow("static filter (profiled)", "PA keys", "-",
		report.Pct(stats.Mean(badRedS)), report.Pct(stats.Mean(goodRedS)),
		report.F2(stats.Mean(ipcStatic)),
		report.Pct(stats.Speedup(stats.Mean(ipc8none), stats.Mean(ipcStatic))))
	t.AddNote("paper (citing Srinivasan et al.): static filtering gains 2-4%%; the dynamic filter should beat it")

	// --- Adaptive filter (engage only when accuracy is low) ----------------
	var ipcAd []float64
	for _, name := range p.benchmarks() {
		r, err := p.run(name, config.Default().WithFilter(config.FilterAdaptive))
		if err != nil {
			return nil, err
		}
		ipcAd = append(ipcAd, r.IPC())
	}
	t.AddRow("adaptive filter", "PA, engage<50% acc", "-", "-", "-",
		report.F2(stats.Mean(ipcAd)), report.Pct(stats.Speedup(stats.Mean(ipc8none), stats.Mean(ipcAd))))
	t.AddNote("adaptive filtering (§5.2.1 'advanced features') avoids filtering accurate prefetchers like SDP/fpppp")

	return t, nil
}
