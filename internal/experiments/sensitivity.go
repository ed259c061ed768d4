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
	"fmt"

	"repro/internal/config"
	"repro/internal/report"
	"repro/internal/stats"
)

func runAggression(p *Params) (*Table, error) {
	degrees := []int{1, 2, 4}
	cols := []string{"scheme"}
	for _, d := range degrees {
		cols = append(cols, fmt.Sprintf("degree %d", d))
	}
	t := report.New("Mean IPC vs NSP degree (all benchmarks, 8KB L1)", cols...)

	ipc := map[config.FilterKind]map[int][]float64{}
	traffic := map[int][]float64{}
	for _, kind := range []config.FilterKind{config.FilterNone, config.FilterPA} {
		ipc[kind] = map[int][]float64{}
		for _, d := range degrees {
			for _, bench := range p.benchmarks() {
				cfg := config.Default().WithFilter(kind)
				cfg.Prefetch.Degree = d
				r, err := p.run(bench, cfg)
				if err != nil {
					return nil, err
				}
				ipc[kind][d] = append(ipc[kind][d], r.IPC())
				if kind == config.FilterNone {
					traffic[d] = append(traffic[d], r.Traffic.PrefetchRatio())
				}
			}
		}
	}
	for _, kind := range []config.FilterKind{config.FilterNone, config.FilterPA} {
		row := []string{string(kind)}
		for _, d := range degrees {
			row = append(row, report.F2(stats.Mean(ipc[kind][d])))
		}
		t.AddRow(row...)
	}
	gainRow := []string{"PA gain"}
	trafRow := []string{"pf/demand (none)"}
	for _, d := range degrees {
		gainRow = append(gainRow, report.Pct(stats.Speedup(stats.Mean(ipc[config.FilterNone][d]), stats.Mean(ipc[config.FilterPA][d]))))
		trafRow = append(trafRow, report.F2(stats.Mean(traffic[d])))
	}
	t.AddRow(gainRow...)
	t.AddRow(trafRow...)
	t.AddNote("§1.2's premise quantified: the filter's gain should grow with prefetch aggressiveness — it is what makes aggressive prefetching safe")
	return t, nil
}

func runMemlat(p *Params) (*Table, error) {
	latencies := []int{75, 150, 300}
	cols := []string{"scheme"}
	for _, l := range latencies {
		cols = append(cols, fmt.Sprintf("%d cyc", l))
	}
	t := report.New("Mean IPC vs memory latency (all benchmarks, 8KB L1)", cols...)

	ipc := map[config.FilterKind]map[int][]float64{}
	for _, kind := range []config.FilterKind{config.FilterNone, config.FilterPA} {
		ipc[kind] = map[int][]float64{}
		for _, l := range latencies {
			for _, bench := range p.benchmarks() {
				cfg := config.Default().WithFilter(kind)
				cfg.MemoryLatency = l
				r, err := p.run(bench, cfg)
				if err != nil {
					return nil, err
				}
				ipc[kind][l] = append(ipc[kind][l], r.IPC())
			}
		}
	}
	for _, kind := range []config.FilterKind{config.FilterNone, config.FilterPA} {
		row := []string{string(kind)}
		for _, l := range latencies {
			row = append(row, report.F2(stats.Mean(ipc[kind][l])))
		}
		t.AddRow(row...)
	}
	gainRow := []string{"PA gain"}
	for _, l := range latencies {
		gainRow = append(gainRow, report.Pct(stats.Speedup(stats.Mean(ipc[config.FilterNone][l]), stats.Mean(ipc[config.FilterPA][l]))))
	}
	t.AddRow(gainRow...)
	t.AddNote("the speed-gap motivation of §1: every pollution miss the filter prevents is worth more cycles as memory gets relatively slower")
	return t, nil
}
