// Extension experiments beyond the paper's figures:
//
//   - "taxonomy": the full Srinivasan prefetch classification (the paper's
//     reference [17]), showing how the 2-way good/bad split the filter's
//     hardware uses maps onto the 4-way ground truth — in particular, what
//     fraction of "bad" prefetches are actively Polluting (manufactured a
//     miss) versus merely Useless (wasted traffic).
//   - "energy": the memory-system energy comparison substantiating §3's
//     "unnecessary energy consumption" motivation.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/taxonomy"
)

// runTaxonomyInstrumented executes one instrumented run outside the run
// cache (the tracker is per-run state).
func runTaxonomyInstrumented(ctx context.Context, p *Params, bench string, cfg config.Config) (stats.Run, error) {
	if err := ctx.Err(); err != nil {
		return stats.Run{}, err
	}
	opts := p.simOptions(bench, cfg)
	opts.Taxonomy = true
	return sim.Run(opts)
}

func runTaxonomy(ctx context.Context, p *Params) (*Table, error) {
	t := report.New("Prefetch taxonomy (no filtering, 8KB D-cache)",
		"benchmark", "useful", "conflicting", "polluting", "useless", "2-way good", "2-way bad")
	var agg taxonomy.Counts
	for _, name := range p.benchmarks() {
		r, err := runTaxonomyInstrumented(ctx, p, name, config.Default())
		if err != nil {
			return nil, err
		}
		if r.Taxonomy == nil {
			return nil, fmt.Errorf("experiments: taxonomy instrumentation missing for %s", name)
		}
		c := *r.Taxonomy
		agg.Useful += c.Useful
		agg.Conflicting += c.Conflicting
		agg.Polluting += c.Polluting
		agg.Useless += c.Useless
		good, bad := c.GoodBad()
		t.AddRow(name,
			report.Pct(c.Frac(taxonomy.Useful)),
			report.Pct(c.Frac(taxonomy.Conflicting)),
			report.Pct(c.Frac(taxonomy.Polluting)),
			report.Pct(c.Frac(taxonomy.Useless)),
			report.I(good), report.I(bad))
	}
	good, bad := agg.GoodBad()
	t.AddRow("aggregate",
		report.Pct(agg.Frac(taxonomy.Useful)),
		report.Pct(agg.Frac(taxonomy.Conflicting)),
		report.Pct(agg.Frac(taxonomy.Polluting)),
		report.Pct(agg.Frac(taxonomy.Useless)),
		report.I(good), report.I(bad))
	t.AddNote("good = useful+conflicting, bad = polluting+useless: the projection the paper's 2-bit PIB/RIB hardware implements")
	t.AddNote("polluting prefetches manufacture a demand miss; useless ones only burn bandwidth — the filter removes both")
	return t, nil
}

func runEnergy(ctx context.Context, p *Params) (*Table, error) {
	runs, err := p.grid(ctx, filterTriple(config.Default()))
	if err != nil {
		return nil, err
	}
	t := report.New("Memory-system energy per instruction (nJ/instr)",
		"benchmark", "none", "PA", "PC", "PA saving", "PC saving")
	params := energy.DefaultParams()
	var perNone, perPA, perPC []float64
	for i, name := range p.benchmarks() {
		none, pa, pc := runs[i][0], runs[i][1], runs[i][2]
		lineBytes := config.Default().L1.LineBytes
		bn, err := energy.Estimate(params, none, lineBytes)
		if err != nil {
			return nil, err
		}
		bp, err := energy.Estimate(params, pa, lineBytes)
		if err != nil {
			return nil, err
		}
		bc, err := energy.Estimate(params, pc, lineBytes)
		if err != nil {
			return nil, err
		}
		en := bn.PerInstruction(none.Instructions)
		ep := bp.PerInstruction(pa.Instructions)
		ec := bc.PerInstruction(pc.Instructions)
		perNone = append(perNone, en)
		perPA = append(perPA, ep)
		perPC = append(perPC, ec)
		t.AddRow(name, report.F2(en), report.F2(ep), report.F2(ec),
			report.Pct(stats.Reduction(en, ep)), report.Pct(stats.Reduction(en, ec)))
	}
	t.AddRow("mean", report.F2(stats.Mean(perNone)), report.F2(stats.Mean(perPA)), report.F2(stats.Mean(perPC)),
		report.Pct(stats.Reduction(stats.Mean(perNone), stats.Mean(perPA))),
		report.Pct(stats.Reduction(stats.Mean(perNone), stats.Mean(perPC))))
	t.AddNote("the history table's own energy is included (one op per query + per training event); it is negligible next to the L2/memory traffic it prevents")
	return t, nil
}
