// The baselines experiment: every pollution-control approach the paper
// discusses, side by side on the default machine — the summary comparison
// the paper spreads across §5.2, §5.5 and related work.
//
//   - none:       aggressive prefetching, no control (the paper's baseline)
//   - pa / pc:    the paper's contribution
//   - adaptive:   §5.2.1's accuracy-gated variant
//   - static:     Srinivasan et al. profile-driven filter (related work)
//   - deadblock:  Lai et al. victim-liveness gate (related work [11])
//   - buffer:     Chen et al. dedicated prefetch buffer, no filter (§5.5)
package experiments

import (
	"context"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
)

func runBaselines(ctx context.Context, p *Params) (*Table, error) {
	def := config.Default()
	runs, err := p.grid(ctx, []config.Config{
		def.WithFilter(config.FilterNone), def.WithFilter(config.FilterPA), def.WithFilter(config.FilterPC),
		def.WithFilter(config.FilterAdaptive), def.WithFilter(config.FilterDeadBlock), def.WithPrefetchBuffer(true),
	})
	if err != nil {
		return nil, err
	}
	static, err := p.staticRuns(ctx)
	if err != nil {
		return nil, err
	}
	t := report.New("Pollution-control baselines (means over all benchmarks, 8KB L1)",
		"scheme", "mean IPC", "vs none", "bad reduction", "good reduction", "hardware cost")

	schemes := []struct {
		label, cost string
		runs        []stats.Run
	}{
		{"none", "—", column(runs, 0)},
		{"PA filter (paper)", "1KB table + 2b/line", column(runs, 1)},
		{"PC filter (paper)", "1KB table + 2b/line + PC path", column(runs, 2)},
		{"adaptive PA (§5.2.1)", "1KB table + accuracy window", column(runs, 3)},
		{"static profile (Srinivasan)", "offline profile", static},
		{"dead-block gate (Lai)", "1KB table + sig/line", column(runs, 4)},
		{"prefetch buffer (Chen)", "16-entry FA buffer", column(runs, 5)},
	}
	for _, s := range schemes {
		var ipc, badRed, goodRed []float64
		for i, r := range s.runs {
			base := runs[i][0]
			ipc = append(ipc, r.IPC())
			badRed = append(badRed, stats.Reduction(float64(base.Prefetches.Bad), float64(r.Prefetches.Bad)))
			goodRed = append(goodRed, stats.Reduction(float64(base.Prefetches.Good), float64(r.Prefetches.Good)))
		}
		vs := stats.Speedup(columnMean(runs, 0, stats.Run.IPC), stats.Mean(ipc))
		if s.label == "none" {
			t.AddRow(s.label, report.F2(stats.Mean(ipc)), "—", "—", "—", s.cost)
			continue
		}
		t.AddRow(s.label, report.F2(stats.Mean(ipc)), report.Pct(vs),
			report.Pct(stats.Mean(badRed)), report.Pct(stats.Mean(goodRed)), s.cost)
	}
	t.AddNote("the dead-block gate protects live victims rather than predicting prefetch usefulness; with a direct-mapped L1 every prefetch has exactly one victim")
	t.AddNote("bad/good reductions for the buffer row reflect classification inside the buffer rather than the L1")
	return t, nil
}

// staticRuns runs every benchmark under Srinivasan et al.'s profile-driven
// filter on the default machine: a profiling pass, then the measured run,
// outside the run cache.
func (p *Params) staticRuns(ctx context.Context) ([]stats.Run, error) {
	var runs []stats.Run
	for _, name := range p.benchmarks() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := sim.RunStatic(p.simOptions(name, config.Default()), core.PAKey, 0.5)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}
