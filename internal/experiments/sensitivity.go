// Sensitivity experiments on the paper's two framing assumptions:
//
//   - "aggression": §1.2 motivates the filter with ever more aggressive
//     prefetching. Sweeping the NSP degree (lines fetched per trigger)
//     should show the unfiltered machine degrading as prefetching grows
//     more aggressive while the filtered machine holds — i.e. the filter
//     is what *makes* aggressive prefetching safe.
//   - "memlat": §1 motivates everything with the growing CPU/memory speed
//     gap. Sweeping main-memory latency should show the filter's absolute
//     value growing with the gap (each avoided pollution miss is worth
//     more cycles).
package experiments

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/report"
	"repro/internal/stats"
)

// knobSweep is the none and PA machines at each setting of one knob of
// the default machine, "none" settings first.
type knobSweep struct {
	title    string
	settings []int
	label    func(v int) string
	set      func(c *config.Config, v int)
}

// run returns the sweep's table, mean IPC per scheme and setting and
// the PA gain row, and its grid: column j is none at settings[j], column
// len(settings)+j is PA at it.
func (k knobSweep) run(ctx context.Context, p *Params) (*Table, [][]stats.Run, error) {
	kinds := []config.FilterKind{config.FilterNone, config.FilterPA}
	var cols []config.Config
	for _, kind := range kinds {
		for _, v := range k.settings {
			cfg := config.Default().WithFilter(kind)
			k.set(&cfg, v)
			cols = append(cols, cfg)
		}
	}
	runs, err := p.grid(ctx, cols)
	if err != nil {
		return nil, nil, err
	}
	n := len(k.settings)
	header := []string{"scheme"}
	for _, v := range k.settings {
		header = append(header, k.label(v))
	}
	t := report.New(k.title, header...)
	for ki, kind := range kinds {
		row := []string{string(kind)}
		for j := range k.settings {
			row = append(row, report.F2(columnMean(runs, ki*n+j, stats.Run.IPC)))
		}
		t.AddRow(row...)
	}
	gainRow := []string{"PA gain"}
	for j := range k.settings {
		gainRow = append(gainRow, report.Pct(stats.Speedup(columnMean(runs, j, stats.Run.IPC), columnMean(runs, n+j, stats.Run.IPC))))
	}
	t.AddRow(gainRow...)
	return t, runs, nil
}

func runAggression(ctx context.Context, p *Params) (*Table, error) {
	degrees := []int{1, 2, 4}
	t, runs, err := knobSweep{
		title:    "Mean IPC vs NSP degree (all benchmarks, 8KB L1)",
		settings: degrees,
		label:    func(d int) string { return fmt.Sprintf("degree %d", d) },
		set:      func(c *config.Config, d int) { c.Prefetch.Degree = d },
	}.run(ctx, p)
	if err != nil {
		return nil, err
	}
	trafRow := []string{"pf/demand (none)"}
	for j := range degrees { // the unfiltered columns
		trafRow = append(trafRow, report.F2(columnMean(runs, j, func(r stats.Run) float64 { return r.Traffic.PrefetchRatio() })))
	}
	t.AddRow(trafRow...)
	t.AddNote("§1.2's premise quantified: the filter's gain should grow with prefetch aggressiveness — it is what makes aggressive prefetching safe")
	return t, nil
}

func runMemlat(ctx context.Context, p *Params) (*Table, error) {
	t, _, err := knobSweep{
		title:    "Mean IPC vs memory latency (all benchmarks, 8KB L1)",
		settings: []int{75, 150, 300},
		label:    func(l int) string { return fmt.Sprintf("%d cyc", l) },
		set:      func(c *config.Config, l int) { c.MemoryLatency = l },
	}.run(ctx, p)
	if err != nil {
		return nil, err
	}
	t.AddNote("the speed-gap motivation of §1: every pollution miss the filter prevents is worth more cycles as memory gets relatively slower")
	return t, nil
}
