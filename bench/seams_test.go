package bench

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/sim"
)

// TestSeamsMatchSimRun runs three cells through the wrapped assembly and
// sim.Run: the D-side paper machine, the costliest generator under the
// perceptron, and the I-side MANA prefetcher under the tournament filter.
// Every field of stats.Run must agree, filter statistics included.
func TestSeamsMatchSimRun(t *testing.T) {
	const n, warmup = 50_000, 10_000
	cells := []cell{
		{name: "gcc/paper/pa", bench: "gcc", cfg: config.Default().WithFilter(config.FilterPA)},
		{name: "wave5/berti/perceptron", bench: "wave5",
			cfg: config.Default().WithGenerator(config.PrefetchBerti).WithFilter(config.FilterPerceptron)},
		{name: "gcc/i:mana/tournament", bench: "gcc",
			cfg: config.Default().WithIPrefetch(config.IPrefetchMANA).WithFilter(config.FilterTournament)},
	}
	null := calibrateNull()
	buf := make([]isa.Record, 0, readAhead)
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			want, err := sim.Run(sim.Options{Benchmark: c.bench, Config: c.cfg, MaxInstructions: n, Warmup: warmup})
			if err != nil {
				t.Fatal(err)
			}
			got, tr, err := traceCell(c, n, warmup, null, buf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				g, _ := json.Marshal(got) // stats.Run is plain data
				w, _ := json.Marshal(want)
				t.Fatalf("traced run differs from sim.Run:\n got %s\nwant %s", g, w)
			}
			// The filter saw warmup queries the result must not count:
			// only a forwarded ResetStats drops them.
			if got.FilterQueries >= tr.allow.calls {
				t.Fatalf("filter counted %d queries of %d Allow calls: the warmup reset was lost", got.FilterQueries, tr.allow.calls)
			}
			if tr.wall <= 0 || tr.records < uint64(n+warmup) || tr.prefetch.calls == 0 {
				t.Fatalf("seams recorded nothing: %+v", tr)
			}
			if c.cfg.Frontend != nil && tr.frontend.calls == 0 {
				t.Fatal("the I-side cell never called the instruction prefetcher")
			}
		})
	}
}
