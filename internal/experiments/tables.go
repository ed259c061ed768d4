// Table 1 (system configuration) and Table 2 (benchmark properties).
package experiments

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runTable1 renders the default machine, verifying it matches Table 1.
func runTable1(context.Context, *Params) (*Table, error) {
	cfg := config.Default()
	t := report.New("Table 1 — system configuration", "parameter", "value")
	add := func(k, v string) { t.AddRow(k, v) }
	add("issue/retire", fmt.Sprintf("%d inst/cycle", cfg.CPU.IssueWidth))
	add("reorder buffer", fmt.Sprintf("%d entries", cfg.CPU.ROBEntries))
	add("load/store queue", fmt.Sprintf("%d entries", cfg.CPU.LSQEntries))
	add("branch predictor", fmt.Sprintf("bimodal, %d entries", cfg.CPU.BimodalEntries))
	add("BTB", fmt.Sprintf("%d-way, %d sets", cfg.CPU.BTBAssoc, cfg.CPU.BTBSets))
	add("L1 D", fmt.Sprintf("%dKB, %db line, %d-way, %d cycle",
		cfg.L1.SizeBytes/1024, cfg.L1.LineBytes, cfg.L1.Assoc, cfg.L1.LatencyCycles))
	add("L1 D ports", fmt.Sprintf("%d", cfg.L1.Ports))
	add("L2", fmt.Sprintf("%dKB, %db line, %d-way, %d cycles",
		cfg.L2.SizeBytes/1024, cfg.L2.LineBytes, cfg.L2.Assoc, cfg.L2.LatencyCycles))
	add("L2 ports", fmt.Sprintf("%d", cfg.L2.Ports))
	add("memory latency", fmt.Sprintf("%d core cycles", cfg.MemoryLatency))
	add("prefetch queue", fmt.Sprintf("%d entries", cfg.Prefetch.QueueEntries))
	add("pollution filter", fmt.Sprintf("%d entries (%dB)", cfg.Filter.TableEntries, cfg.Filter.TableEntries/4))
	return t, nil
}

// noPrefetchCols is Table 2's one machine: every prefetcher disabled.
func noPrefetchCols() []config.Config {
	return []config.Config{sim.NoPrefetchConfig(config.Default())}
}

// runTable2 measures baseline miss rates with every prefetcher disabled,
// side by side with the paper's values for calibration.
func runTable2(ctx context.Context, p *Params) (*Table, error) {
	runs, err := p.grid(ctx, noPrefetchCols())
	if err != nil {
		return nil, err
	}
	t := report.New("Table 2 — benchmark properties (prefetch off)",
		"benchmark", "input", "L1 miss", "paper L1", "L2 miss", "paper L2", "IPC")
	for i, name := range p.benchmarks() {
		spec, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown benchmark %q", name)
		}
		r := runs[i][0]
		t.AddRow(name, spec.Input,
			report.F(r.L1MissRate()), report.F(spec.PaperL1Miss),
			report.F(r.L2MissRate()), report.F(spec.PaperL2Miss),
			report.F2(r.IPC()))
	}
	t.AddNote("miss rates are local (misses per access at that level), matching the paper's convention")
	return t, nil
}
