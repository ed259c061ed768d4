// The multiprogramming experiment: filter behaviour under context
// switches.
//
// The paper evaluates single programs; real deep-submicron processors
// time-share. Context switches are the working-set changes §2 worries
// about, arriving every scheduling quantum: the cache refills with the
// incoming program's data and the history table's verdicts go stale. This
// experiment interleaves two benchmarks with very different prefetch
// behaviour (wave5: streaming, prefetch-friendly; mcf: pointer-chasing,
// prefetch-hostile) on a coarse quantum and compares the filters against
// no filtering on the combined trace.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// multiprogQuantum is the context-switch interval in records (~a few
// hundred microseconds of simulated time at these IPCs).
const multiprogQuantum = 50_000

func runMultiprog(ctx context.Context, p *Params) (*Table, error) {
	t := report.New("Multiprogrammed trace (wave5 ⇄ mcf, 50K-record quantum)",
		"scheme", "IPC", "vs none", "good", "bad", "filtered")

	const pair = "wave5+mcf"
	mkSource := func() (isa.Source, error) {
		a, ok := workload.ByName("wave5")
		if !ok {
			return nil, fmt.Errorf("experiments: wave5 missing")
		}
		b, ok := workload.ByName("mcf")
		if !ok {
			return nil, fmt.Errorf("experiments: mcf missing")
		}
		return isa.NewInterleaveSource(multiprogQuantum, a.New(p.Seed), b.New(p.Seed+1))
	}

	// Enough instructions for several quanta of each program.
	instr := p.Instructions
	if instr < 1_000_000 {
		instr = 1_000_000
	}
	runOne := func(kind config.FilterKind, filter core.Filter) (stats.Run, error) {
		if err := ctx.Err(); err != nil {
			return stats.Run{}, err
		}
		src, err := mkSource()
		if err != nil {
			return stats.Run{}, err
		}
		opts := p.simOptions(pair, config.Default().WithFilter(kind))
		opts.Source, opts.Filter, opts.MaxInstructions = src, filter, instr
		return sim.Run(opts)
	}

	none, err := runOne(config.FilterNone, nil)
	if err != nil {
		return nil, err
	}
	pa, err := runOne(config.FilterPA, nil)
	if err != nil {
		return nil, err
	}
	pc, err := runOne(config.FilterPC, nil)
	if err != nil {
		return nil, err
	}

	add := func(label string, r stats.Run) {
		t.AddRow(label, report.F2(r.IPC()),
			report.Pct(stats.Speedup(none.IPC(), r.IPC())),
			report.I(r.Prefetches.Good), report.I(r.Prefetches.Bad),
			report.I(r.Prefetches.Filtered))
	}
	add("none", none)
	add("PA", pa)
	add("PC", pc)

	t.AddNote("the interleave alternates a prefetch-friendly and a prefetch-hostile program through one shared" +
		" cache hierarchy and one shared history table; the dynamic filter must serve both at once")
	return t, nil
}
