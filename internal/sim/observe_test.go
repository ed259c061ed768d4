package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestMetricsMatchRunAggregates pins the observability contract: after
// an instrumented run, the registry's live sim.pf.* (and, with the front
// end on, sim.ipf.*) counters equal the stats.Run aggregates exactly —
// same classification, same filter activity, across the warmup reset. An instrumented run must also
// return bit-identical results to an un-instrumented one.
func TestMetricsMatchRunAggregates(t *testing.T) {
	// The front-end case runs both sides: the D-side generators stay on
	// beside the next-line instruction prefetcher.
	frontended := config.Default().WithFilter(config.FilterPA)
	fe := config.DefaultFrontend()
	fe.IPrefetch = config.IPrefetchNextLine
	frontended.Frontend = &fe
	for _, cfg := range []config.Config{
		config.Default().WithFilter(config.FilterNone),
		config.Default().WithFilter(config.FilterPA),
		frontended,
	} {
		filter := cfg.Filter.Kind
		if cfg.Frontend != nil {
			filter += "+frontend"
		}
		reg := metrics.New()
		tr := trace.New(1 << 16).WithInterval(10_000)
		opts := Options{
			Benchmark:       "gzip",
			Config:          cfg,
			MaxInstructions: 50_000,
			Warmup:          10_000,
		}
		plain, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Trace = tr
		opts.Metrics = reg
		run, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if run.Cycles != plain.Cycles || run.Prefetches != plain.Prefetches ||
			(run.Frontend != nil && *run.Frontend != *plain.Frontend) {
			t.Fatalf("%s: instrumentation changed the simulation: %+v vs %+v",
				filter, run.Prefetches, plain.Prefetches)
		}

		s := reg.Snapshot()
		want := map[string]uint64{
			"sim.pf.issued":      run.Prefetches.Issued,
			"sim.pf.good":        run.Prefetches.Good,
			"sim.pf.bad":         run.Prefetches.Bad,
			"sim.pf.filtered":    run.Prefetches.Filtered,
			"sim.pf.squashed":    run.Prefetches.Squashed,
			"sim.pf.overflow":    run.Prefetches.Overflow,
			"sim.demand.misses":  run.L1DemandMisses,
			"sim.cpu.cycles":     run.Cycles,
			"sim.filter.queries": run.FilterQueries,
		}
		if fr := run.Frontend; fr != nil {
			if fr.Prefetches.Issued == 0 || run.Prefetches.Issued == 0 {
				t.Fatalf("%s: a side issued nothing: pf=%+v ipf=%+v", filter, run.Prefetches, fr.Prefetches)
			}
			want["sim.ipf.issued"] = fr.Prefetches.Issued
			want["sim.ipf.good"] = fr.Prefetches.Good
			want["sim.ipf.bad"] = fr.Prefetches.Bad
			want["sim.ipf.filtered"] = fr.Prefetches.Filtered
			want["sim.ipf.squashed"] = fr.Prefetches.Squashed
			want["sim.ipf.overflow"] = fr.Prefetches.Overflow
		} else if _, ok := s.Counters["sim.ipf.issued"]; ok {
			t.Errorf("%s: sim.ipf.* registered without a front end", filter)
		}
		for name, w := range want {
			if got, ok := s.Counters[name]; !ok || got != w {
				t.Errorf("%s: metric %s = %d (registered %v), want %d", filter, name, got, ok, w)
			}
		}

		// The trace must carry the lifecycle: issues, fills, evictions.
		if tr.Total() == 0 {
			t.Fatalf("%s: no trace events", filter)
		}
		var issues, evicts uint64
		for _, r := range tr.Rollups() {
			issues += r.Issued()
			evicts += r.GoodEvicts + r.BadEvicts
		}
		if issues == 0 || evicts == 0 {
			t.Fatalf("%s: rollups missing lifecycle: issues=%d evicts=%d", filter, issues, evicts)
		}
		// Trace covers the whole run including warmup, so its issue count
		// can only meet or exceed the post-warmup aggregate.
		if issues < run.Prefetches.Issued {
			t.Errorf("%s: traced issues %d < measured %d", filter, issues, run.Prefetches.Issued)
		}

		// JSONL export: every line decodes, cycle-stamped, known kind.
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		if len(lines) == 0 {
			t.Fatalf("%s: empty JSONL export", filter)
		}
		for i, line := range lines {
			var obj struct {
				Cycle *uint64 `json:"cycle"`
				Kind  string  `json:"kind"`
			}
			if err := json.Unmarshal(line, &obj); err != nil {
				t.Fatalf("%s: line %d not JSON: %v\n%s", filter, i, err, line)
			}
			if obj.Cycle == nil || obj.Kind == "" {
				t.Fatalf("%s: line %d missing cycle/kind: %s", filter, i, line)
			}
		}
	}
}

// TestMetricsFilterDump checks the filter's end-of-run table-state dump:
// counter distribution must sum to the table size.
func TestMetricsFilterDump(t *testing.T) {
	reg := metrics.New()
	_, err := Run(Options{
		Benchmark:       "mcf",
		Config:          config.Default().WithFilter(config.FilterPA),
		MaxInstructions: 30_000,
		Warmup:          -1,
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	var sum uint64
	for _, name := range []string{
		"sim.filter.table.counter0", "sim.filter.table.counter1",
		"sim.filter.table.counter2", "sim.filter.table.counter3",
	} {
		sum += s.Counters[name]
	}
	if sum != 4096 {
		t.Fatalf("table counter distribution sums to %d, want 4096", sum)
	}
}
