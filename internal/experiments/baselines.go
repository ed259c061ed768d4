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
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
)

func runBaselines(p *Params) (*Table, error) {
	t := report.New("Pollution-control baselines (means over all benchmarks, 8KB L1)",
		"scheme", "mean IPC", "vs none", "bad reduction", "good reduction", "hardware cost")

	type scheme struct {
		label string
		cost  string
		run   func(bench string) (stats.Run, error)
	}
	mkKind := func(kind config.FilterKind) func(string) (stats.Run, error) {
		return func(bench string) (stats.Run, error) {
			return p.run(bench, config.Default().WithFilter(kind))
		}
	}
	schemes := []scheme{
		{"none", "—", mkKind(config.FilterNone)},
		{"PA filter (paper)", "1KB table + 2b/line", mkKind(config.FilterPA)},
		{"PC filter (paper)", "1KB table + 2b/line + PC path", mkKind(config.FilterPC)},
		{"adaptive PA (§5.2.1)", "1KB table + accuracy window", mkKind(config.FilterAdaptive)},
		{"static profile (Srinivasan)", "offline profile", func(bench string) (stats.Run, error) {
			return sim.RunStatic(p.simOptions(bench, config.Default()), core.PAKey, 0.5)
		}},
		{"dead-block gate (Lai)", "1KB table + sig/line", mkKind(config.FilterDeadBlock)},
		{"prefetch buffer (Chen)", "16-entry FA buffer", func(bench string) (stats.Run, error) {
			return p.run(bench, config.Default().WithPrefetchBuffer(true))
		}},
	}

	var baseIPC []float64
	baseRuns := map[string]stats.Run{}
	for _, name := range p.benchmarks() {
		r, err := schemes[0].run(name)
		if err != nil {
			return nil, err
		}
		baseRuns[name] = r
		baseIPC = append(baseIPC, r.IPC())
	}

	for _, s := range schemes {
		var ipc, badRed, goodRed []float64
		for _, name := range p.benchmarks() {
			r, err := s.run(name)
			if err != nil {
				return nil, err
			}
			base := baseRuns[name]
			ipc = append(ipc, r.IPC())
			badRed = append(badRed, stats.Reduction(float64(base.Prefetches.Bad), float64(r.Prefetches.Bad)))
			goodRed = append(goodRed, stats.Reduction(float64(base.Prefetches.Good), float64(r.Prefetches.Good)))
		}
		vs := stats.Speedup(stats.Mean(baseIPC), stats.Mean(ipc))
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
