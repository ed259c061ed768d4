// The adaptivity experiment: §2's central argument for dynamic filtering.
//
// "In theory, the profiling information can provide precise global
// information for a given input data set, however, it lacks the dynamic
// adaptivity during runtime when the working set changes."
//
// The paper asserts this; the `phased` micro workload lets us measure it.
// phased alternates between a streaming phase (every hardware prefetch is
// good) and a random phase (every hardware prefetch is useless) on a long
// period. A dynamic history table re-trains within each phase; a static
// profile is one fixed decision set that is wrong half the time; and an
// unfiltered machine eats the random phase's pollution.
package experiments

import (
	"context"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
)

func runAdaptivity(ctx context.Context, p *Params) (*Table, error) {
	t := report.New("Phase-change adaptivity (phased workload: streaming ↔ random)",
		"scheme", "IPC", "vs none", "good kept", "bad kept", "filtered")

	// The phased workload needs several full phases inside the measured
	// window to expose adaptation; scale the budget up if the caller's is
	// small (each phase is ~60K rounds ≈ 400K instructions).
	instr := p.Instructions
	if instr < 3_000_000 {
		instr = 3_000_000
	}
	warm := p.Warmup
	if warm < 500_000 {
		warm = 500_000
	}
	phased := func(cfg config.Config) sim.Options {
		opts := p.simOptions("phased", cfg)
		opts.MaxInstructions, opts.Warmup = instr, warm
		return opts
	}
	runOne := func(kind config.FilterKind) (stats.Run, error) {
		if err := ctx.Err(); err != nil {
			return stats.Run{}, err
		}
		return sim.Run(phased(config.Default().WithFilter(kind)))
	}

	none, err := runOne(config.FilterNone)
	if err != nil {
		return nil, err
	}
	pa, err := runOne(config.FilterPA)
	if err != nil {
		return nil, err
	}
	adaptive, err := runOne(config.FilterAdaptive)
	if err != nil {
		return nil, err
	}
	probe, err := func() (stats.Run, error) {
		if err := ctx.Err(); err != nil {
			return stats.Run{}, err
		}
		f, err := core.NewPA(config.Default().Filter.TableEntries, 2, 2, core.IndexDirect)
		if err != nil {
			return stats.Run{}, err
		}
		f.SetProbation(64) // one rejected prefetch in 64 issues anyway
		opts := phased(config.Default())
		opts.Filter = f
		return sim.Run(opts)
	}()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	static, err := sim.RunStatic(phased(config.Default()), core.PAKey, 0.5)
	if err != nil {
		return nil, err
	}

	add := func(label string, r stats.Run) {
		t.AddRow(label,
			report.F2(r.IPC()),
			report.Pct(stats.Speedup(none.IPC(), r.IPC())),
			report.Pct(stats.SafeRatio(float64(r.Prefetches.Good), float64(none.Prefetches.Good))),
			report.Pct(stats.SafeRatio(float64(r.Prefetches.Bad), float64(none.Prefetches.Bad))),
			report.I(r.Prefetches.Filtered))
	}
	add("none", none)
	add("PA (dynamic)", pa)
	add("adaptive PA", adaptive)
	add("PA + probation (ext)", probe)
	add("static profile", static)

	t.AddNote("the streaming phase makes every NSP prefetch good and the random phase makes every prefetch useless;"+
		" a dynamic table re-trains at each transition (period %d rounds)", 60_000)
	t.AddNote("paper §2: static profiling \"lacks the dynamic adaptivity during runtime when the working set changes\"")
	t.AddNote("probation (an extension): 1-in-64 rejected prefetches issue anyway, keeping feedback alive so the" +
		" table can un-learn a phase's rejections — the pure paper design is absorbing once every entry trains bad")
	return t, nil
}
