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
	"context"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
)

func runAblation(ctx context.Context, p *Params) (*Table, error) {
	pa := config.Default().WithFilter(config.FilterPA)
	variant := func(mutate func(*config.Config)) config.Config {
		c := pa
		mutate(&c)
		return c
	}
	stride := config.Default().WithFilter(config.FilterNone)
	stride.Prefetch.EnableStride = true
	corr := config.Default().WithFilter(config.FilterNone)
	corr.Prefetch.EnableCorrelation = true
	runs, err := p.grid(ctx, []config.Config{
		config.Default().WithFilter(config.FilterNone),
		pa,
		// Initial-counter sweep: weakly-bad start rejects first-touch keys;
		// strongly-good start takes two bad evictions to reject.
		variant(func(c *config.Config) { c.Filter.InitialCounter = 1 }),
		variant(func(c *config.Config) { c.Filter.InitialCounter = 3 }),
		// Victim cache (Jouppi): how much of the filter's benefit does a
		// conflict-miss fix capture — and do the two compose?
		variant(func(c *config.Config) { c.Filter.Kind, c.VictimEntries = config.FilterNone, 8 }),
		variant(func(c *config.Config) { c.VictimEntries = 8 }),
		// Bounded MSHRs: throttling memory-level parallelism interacts with
		// prefetch timeliness.
		variant(func(c *config.Config) { c.CPU.MSHRs = 8 }),
		// Stride prefetcher and correlation prefetcher (reference [2]) in
		// the mix, unfiltered vs filtered.
		stride, stride.WithFilter(config.FilterPA),
		corr, corr.WithFilter(config.FilterPA),
	})
	if err != nil {
		return nil, err
	}
	// Tagged-table variants: stateful filters cannot go through the run
	// cache, so these run uncached.
	custom := func(mk func() (core.Filter, error)) ([]stats.Run, error) {
		var out []stats.Run
		for _, name := range p.benchmarks() {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			f, err := mk()
			if err != nil {
				return nil, err
			}
			opts := p.simOptions(name, config.Default())
			opts.Filter = f
			r, err := sim.Run(opts)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
	tagged, err := custom(func() (core.Filter, error) { return core.NewTaggedPA(4096, 8) })
	if err != nil {
		return nil, err
	}
	hashed, err := custom(func() (core.Filter, error) { return core.NewPA(4096, 2, 2, core.IndexHash) })
	if err != nil {
		return nil, err
	}

	t := report.New("Ablations (means over all benchmarks, PA filter unless noted)",
		"variant", "mean IPC", "bad reduction", "good reduction", "filter reject rate")
	noneRuns := column(runs, 0)
	meanIPC := func(rs []stats.Run) string { return report.F2(meanOf(rs, stats.Run.IPC)) }
	t.AddRow("no filtering", meanIPC(noneRuns), "-", "-", "-")
	add := func(label string, rs []stats.Run) {
		var badRed, goodRed, rej []float64
		for i, r := range rs {
			none := noneRuns[i]
			badRed = append(badRed, stats.Reduction(float64(none.Prefetches.Bad), float64(r.Prefetches.Bad)))
			goodRed = append(goodRed, stats.Reduction(float64(none.Prefetches.Good), float64(r.Prefetches.Good)))
			rej = append(rej, stats.SafeRatio(float64(r.FilterRejected), float64(r.FilterQueries)))
		}
		t.AddRow(label, meanIPC(rs), report.Pct(stats.Mean(badRed)),
			report.Pct(stats.Mean(goodRed)), report.Pct(stats.Mean(rej)))
	}
	add("PA, direct index (paper)", column(runs, 1))
	add("PA, init counter=1 (weakly bad)", column(runs, 2))
	add("PA, init counter=3 (strongly good)", column(runs, 3))
	add("PA, tagged table (8-bit tags)", tagged)
	add("PA, hash index", hashed)
	add("8-entry victim cache, no filter", column(runs, 4))
	add("victim cache + PA filter", column(runs, 5))
	add("PA + 8 MSHRs", column(runs, 6))
	for j, label := range []string{"+stride RPT, no filter", "+stride RPT, PA filter", "+correlation, no filter", "+correlation, PA filter"} {
		t.AddRow(label, meanIPC(column(runs, 7+j)), "-", "-", "-")
	}
	t.AddNote("tagged tables remove aliasing interference but also the aliasing-driven recovery the paper's untagged design relies on")
	return t, nil
}
