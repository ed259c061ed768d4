// Ablations beyond the paper: design choices DESIGN.md calls out.
//
//   - Indexing: the paper uses direct (low-bit) indexing into the history
//     table; multiplicative hashing spreads aliases differently.
//   - Initial counter: the paper relies on first-touch prefetches being
//     allowed (counters start weakly good). Starting at strongly-good or
//     weakly-bad shifts the allow/deny balance.
//   - Stride prefetcher: adding a Chen&Baer reference prediction table to
//     the prefetcher mix, with and without the PA filter.
//   - Tagged history table: partial tags remove aliasing interference at
//     a storage cost — and remove the aliasing-driven entry recovery the
//     untagged design benefits from.
package experiments

import (
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
)

func runAblation(p *Params) (*Table, error) {
	t := report.New("Ablations (means over all benchmarks, PA filter unless noted)",
		"variant", "mean IPC", "bad reduction", "good reduction", "filter reject rate")

	baseline := config.Default().WithFilter(config.FilterNone)
	var ipcNone []float64
	noneRuns := map[string]stats.Run{}
	for _, name := range p.benchmarks() {
		r, err := p.run(name, baseline)
		if err != nil {
			return nil, err
		}
		noneRuns[name] = r
		ipcNone = append(ipcNone, r.IPC())
	}
	t.AddRow("no filtering", report.F2(stats.Mean(ipcNone)), "-", "-", "-")

	addVariant := func(label string, mutate func(config.Config) config.Config) error {
		var ipc, badRed, goodRed, rej []float64
		for _, name := range p.benchmarks() {
			cfg := mutate(config.Default().WithFilter(config.FilterPA))
			r, err := p.run(name, cfg)
			if err != nil {
				return err
			}
			none := noneRuns[name]
			ipc = append(ipc, r.IPC())
			badRed = append(badRed, stats.Reduction(float64(none.Prefetches.Bad), float64(r.Prefetches.Bad)))
			goodRed = append(goodRed, stats.Reduction(float64(none.Prefetches.Good), float64(r.Prefetches.Good)))
			rej = append(rej, stats.SafeRatio(float64(r.FilterRejected), float64(r.FilterQueries)))
		}
		t.AddRow(label, report.F2(stats.Mean(ipc)), report.Pct(stats.Mean(badRed)),
			report.Pct(stats.Mean(goodRed)), report.Pct(stats.Mean(rej)))
		return nil
	}

	if err := addVariant("PA, direct index (paper)", func(c config.Config) config.Config { return c }); err != nil {
		return nil, err
	}
	// Initial-counter sweep: weakly-bad start rejects first-touch keys;
	// strongly-good start takes two bad evictions to reject.
	if err := addVariant("PA, init counter=1 (weakly bad)", func(c config.Config) config.Config {
		c.Filter.InitialCounter = 1
		return c
	}); err != nil {
		return nil, err
	}
	if err := addVariant("PA, init counter=3 (strongly good)", func(c config.Config) config.Config {
		c.Filter.InitialCounter = 3
		return c
	}); err != nil {
		return nil, err
	}
	// Tagged-table variants: stateful filters cannot go through the run
	// cache, so these run uncached.
	addCustom := func(label string, mk func() (core.Filter, error)) error {
		var ipc, badRed, goodRed, rej []float64
		for _, name := range p.benchmarks() {
			f, err := mk()
			if err != nil {
				return err
			}
			opts := p.simOptions(name, config.Default())
			opts.Filter = f
			r, err := sim.Run(opts)
			if err != nil {
				return err
			}
			none := noneRuns[name]
			ipc = append(ipc, r.IPC())
			badRed = append(badRed, stats.Reduction(float64(none.Prefetches.Bad), float64(r.Prefetches.Bad)))
			goodRed = append(goodRed, stats.Reduction(float64(none.Prefetches.Good), float64(r.Prefetches.Good)))
			rej = append(rej, stats.SafeRatio(float64(r.FilterRejected), float64(r.FilterQueries)))
		}
		t.AddRow(label, report.F2(stats.Mean(ipc)), report.Pct(stats.Mean(badRed)),
			report.Pct(stats.Mean(goodRed)), report.Pct(stats.Mean(rej)))
		return nil
	}
	if err := addCustom("PA, tagged table (8-bit tags)", func() (core.Filter, error) {
		return core.NewTaggedPA(4096, 8)
	}); err != nil {
		return nil, err
	}
	if err := addCustom("PA, hash index", func() (core.Filter, error) {
		return core.NewPA(4096, 2, 2, core.IndexHash)
	}); err != nil {
		return nil, err
	}

	// Victim cache (Jouppi): how much of the filter's benefit does a
	// conflict-miss fix capture — and do the two compose?
	if err := addVariant("8-entry victim cache, no filter", func(c config.Config) config.Config {
		c.Filter.Kind = config.FilterNone
		c.VictimEntries = 8
		return c
	}); err != nil {
		return nil, err
	}
	if err := addVariant("victim cache + PA filter", func(c config.Config) config.Config {
		c.VictimEntries = 8
		return c
	}); err != nil {
		return nil, err
	}
	// Bounded MSHRs: throttling memory-level parallelism interacts with
	// prefetch timeliness.
	if err := addVariant("PA + 8 MSHRs", func(c config.Config) config.Config {
		c.CPU.MSHRs = 8
		return c
	}); err != nil {
		return nil, err
	}

	// Stride prefetcher in the mix, unfiltered vs filtered.
	var ipcStrideNone, ipcStridePA []float64
	for _, name := range p.benchmarks() {
		cfgN := config.Default().WithFilter(config.FilterNone)
		cfgN.Prefetch.EnableStride = true
		rn, err := p.run(name, cfgN)
		if err != nil {
			return nil, err
		}
		cfgP := cfgN.WithFilter(config.FilterPA)
		rp, err := p.run(name, cfgP)
		if err != nil {
			return nil, err
		}
		ipcStrideNone = append(ipcStrideNone, rn.IPC())
		ipcStridePA = append(ipcStridePA, rp.IPC())
	}
	t.AddRow("+stride RPT, no filter", report.F2(stats.Mean(ipcStrideNone)), "-", "-", "-")
	t.AddRow("+stride RPT, PA filter", report.F2(stats.Mean(ipcStridePA)), "-", "-", "-")

	// Correlation prefetcher (reference [2]) in the mix.
	var ipcCorrNone, ipcCorrPA []float64
	for _, name := range p.benchmarks() {
		cfgN := config.Default().WithFilter(config.FilterNone)
		cfgN.Prefetch.EnableCorrelation = true
		rn, err := p.run(name, cfgN)
		if err != nil {
			return nil, err
		}
		rp, err := p.run(name, cfgN.WithFilter(config.FilterPA))
		if err != nil {
			return nil, err
		}
		ipcCorrNone = append(ipcCorrNone, rn.IPC())
		ipcCorrPA = append(ipcCorrPA, rp.IPC())
	}
	t.AddRow("+correlation, no filter", report.F2(stats.Mean(ipcCorrNone)), "-", "-", "-")
	t.AddRow("+correlation, PA filter", report.F2(stats.Mean(ipcCorrPA)), "-", "-", "-")
	t.AddNote("tagged tables remove aliasing interference but also the aliasing-driven recovery the paper's untagged design relies on")
	return t, nil
}
