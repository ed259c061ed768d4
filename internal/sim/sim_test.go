package sim

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestUnknownBenchmark(t *testing.T) {
	if _, err := Run(Options{Benchmark: "quake3"}); err == nil {
		t.Fatal("unknown benchmark should fail")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := config.Default()
	cfg.L1.Ports = 0
	if _, err := Run(Options{Benchmark: "mcf", Config: cfg}); err == nil {
		t.Fatal("invalid config should fail")
	}
}

func TestZeroConfigUsesDefault(t *testing.T) {
	r, err := Run(Options{Benchmark: "fpppp", MaxInstructions: 20_000, Warmup: -1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions != 20_000 {
		t.Fatalf("instructions = %d", r.Instructions)
	}
	if r.Benchmark != "fpppp" || r.Filter != "none" {
		t.Fatalf("labels: %q / %q", r.Benchmark, r.Filter)
	}
}

func TestExplicitSource(t *testing.T) {
	var recs []isa.Record
	for i := 0; i < 5000; i++ {
		recs = append(recs, isa.Load(uint64(0x400000+(i%32)*4), uint64((i%4096)*32)))
	}
	r, err := Run(Options{
		Source:          isa.NewSliceSource(recs),
		Config:          config.Default(),
		MaxInstructions: int64(len(recs)),
		Warmup:          -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Benchmark != "custom" {
		t.Fatalf("label = %q", r.Benchmark)
	}
	if r.Instructions != uint64(len(recs)) {
		t.Fatalf("instructions = %d", r.Instructions)
	}
	if r.L1DemandAccesses != uint64(len(recs)) {
		t.Fatalf("accesses = %d", r.L1DemandAccesses)
	}
}

func TestNoPrefetchConfigZeroesPrefetchStats(t *testing.T) {
	// The default machine, plus one machine per generator the default
	// leaves off: NoPrefetchConfig must switch every generator off.
	for _, gen := range []config.PrefetchKind{"", config.PrefetchCorrelation, config.PrefetchBerti, config.PrefetchGHB} {
		base := config.Default()
		if gen != "" {
			base = base.WithGenerator(gen)
		}
		cfg := NoPrefetchConfig(base)
		r, err := Run(Options{Benchmark: "mcf", Config: cfg, MaxInstructions: 100_000, Warmup: 10_000})
		if err != nil {
			t.Fatal(err)
		}
		if r.Prefetches.Issued != 0 || r.Traffic.PrefetchAccesses != 0 || r.FilterQueries != 0 {
			t.Errorf("base %q: prefetch machinery leaked: %+v", gen, r.Prefetches)
		}
	}
}

// TestValidateResolvesKinds checks that Validate names only kinds the
// registries hold: config.Validate checks numbers and structure, and
// the filter, tournament-side and instruction-prefetch names resolve
// through internal/filter and internal/frontend.
func TestValidateResolvesKinds(t *testing.T) {
	withFrontend := func(kind config.IPrefetchKind) func(*config.Config) {
		return func(c *config.Config) {
			fe := config.DefaultFrontend()
			fe.IPrefetch = kind
			c.Frontend = &fe
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(*config.Config)
		want   string // "" means the config is valid
	}{
		{"default", func(*config.Config) {}, ""},
		{"filter alias", func(c *config.Config) { c.Filter.Kind = config.FilterTablePA }, ""},
		{"static filter", func(c *config.Config) { c.Filter.Kind = config.FilterStatic }, ""},
		{"bad filter kind", func(c *config.Config) { c.Filter.Kind = "magic" }, "unknown filter \"magic\" (registered backends"},
		{"empty filter kind", func(c *config.Config) { c.Filter.Kind = "" }, "unknown filter"},
		{"tournament sides", func(c *config.Config) {
			c.Filter.Kind = config.FilterTournament
			c.Filter.TournamentA, c.Filter.TournamentB = config.FilterTablePC, config.FilterBloom
		}, ""},
		{"tournament side unknown", func(c *config.Config) { c.Filter.TournamentB = "magic" }, "tournament side: unknown filter"},
		{"tournament side static", func(c *config.Config) { c.Filter.TournamentA = config.FilterStatic }, "tournament side cannot be"},
		{"iprefetch none", withFrontend(config.IPrefetchNone), ""},
		{"iprefetch alias", withFrontend(config.IPrefetchFDIPAlias), ""},
		{"iprefetch unknown", withFrontend("magic"), "unknown instruction prefetcher \"magic\" (registered backends"},
		{"iprefetch empty", withFrontend(""), "unknown instruction prefetcher"},
		{"numbers first", func(c *config.Config) { c.Filter.Kind = "magic"; c.Filter.TableEntries = 1000 }, "table entries"},
	} {
		cfg := config.Default()
		tc.mutate(&cfg)
		err := Validate(cfg)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected a valid config: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	opts := Options{Benchmark: "gzip", Config: config.Default().WithFilter(config.FilterPA),
		MaxInstructions: 100_000, Warmup: 20_000}
	r1, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Prefetches != r2.Prefetches ||
		r1.L1DemandMisses != r2.L1DemandMisses {
		t.Fatalf("simulation is not deterministic:\n%+v\n%+v", r1, r2)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	mk := func(seed uint64) stats.Run {
		cfg := config.Default()
		cfg.Seed = seed
		r, err := Run(Options{Benchmark: "gcc", Config: cfg, MaxInstructions: 100_000, Warmup: 10_000})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if mk(1).Cycles == mk(99).Cycles {
		t.Fatal("different seeds should perturb the run")
	}
}

func TestCustomFilterInjected(t *testing.T) {
	f := core.NewNull()
	r, err := Run(Options{
		Benchmark:       "mcf",
		Config:          config.Default(),
		Filter:          f,
		MaxInstructions: 50_000,
		Warmup:          -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Filter != "none" {
		t.Fatalf("filter label = %q", r.Filter)
	}
	if f.Stats().Queries == 0 {
		t.Fatal("injected filter should have been consulted")
	}
	if r.FilterQueries != f.Stats().Queries {
		t.Fatal("run must report the injected filter's stats")
	}
}

func TestConservationInvariant(t *testing.T) {
	for _, bench := range []string{"em3d", "wave5", "mcf"} {
		r, err := Run(Options{Benchmark: bench, Config: config.Default(),
			MaxInstructions: 150_000, Warmup: -1})
		if err != nil {
			t.Fatal(err)
		}
		if r.Prefetches.Classified() != r.Prefetches.Issued {
			t.Fatalf("%s: classified %d != issued %d", bench,
				r.Prefetches.Classified(), r.Prefetches.Issued)
		}
	}
}

func TestRunStaticFlow(t *testing.T) {
	r, err := RunStatic(Options{
		Benchmark:       "gcc",
		Config:          config.Default(),
		MaxInstructions: 80_000,
		Warmup:          20_000,
	}, core.PAKey, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Filter != "pa-static" {
		t.Fatalf("filter = %q", r.Filter)
	}
}

func TestRunStaticRejectsSourceAndFilter(t *testing.T) {
	if _, err := RunStatic(Options{Benchmark: "gcc", Filter: core.NewNull()}, core.PAKey, 0.5); err == nil {
		t.Fatal("explicit filter should be rejected")
	}
	if _, err := RunStatic(Options{Source: isa.NewSliceSource(nil)}, core.PAKey, 0.5); err == nil {
		t.Fatal("explicit source should be rejected")
	}
}

// Direction-of-effect integration tests: the paper's headline claims.

func TestFilterReducesBadPrefetches(t *testing.T) {
	base := config.Default()
	for _, bench := range []string{"em3d", "mcf", "perimeter"} {
		none, err := Run(Options{Benchmark: bench, Config: base, MaxInstructions: 300_000})
		if err != nil {
			t.Fatal(err)
		}
		pa, err := Run(Options{Benchmark: bench, Config: base.WithFilter(config.FilterPA), MaxInstructions: 300_000})
		if err != nil {
			t.Fatal(err)
		}
		if none.Prefetches.Bad == 0 {
			t.Fatalf("%s: baseline generated no bad prefetches to filter", bench)
		}
		red := stats.Reduction(float64(none.Prefetches.Bad), float64(pa.Prefetches.Bad))
		if red < 0.8 {
			t.Errorf("%s: PA filter removed only %.0f%% of bad prefetches", bench, red*100)
		}
	}
}

func TestFilterReducesPrefetchTraffic(t *testing.T) {
	base := config.Default()
	none, err := Run(Options{Benchmark: "em3d", Config: base, MaxInstructions: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := Run(Options{Benchmark: "em3d", Config: base.WithFilter(config.FilterPA), MaxInstructions: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	if pa.Traffic.PrefetchAccesses >= none.Traffic.PrefetchAccesses {
		t.Fatalf("filtered prefetch traffic %d should be below %d",
			pa.Traffic.PrefetchAccesses, none.Traffic.PrefetchAccesses)
	}
}

func TestFilterImprovesPollutedIPC(t *testing.T) {
	base := config.Default()
	for _, bench := range []string{"em3d", "mcf"} {
		none, err := Run(Options{Benchmark: bench, Config: base, MaxInstructions: 300_000})
		if err != nil {
			t.Fatal(err)
		}
		pc, err := Run(Options{Benchmark: bench, Config: base.WithFilter(config.FilterPC), MaxInstructions: 300_000})
		if err != nil {
			t.Fatal(err)
		}
		if pc.IPC() <= none.IPC() {
			t.Errorf("%s: PC filter IPC %.3f should beat unfiltered %.3f (pollution-bound workload)",
				bench, pc.IPC(), none.IPC())
		}
	}
}

func TestDeadBlockFilterRuns(t *testing.T) {
	cfg := config.Default().WithFilter(config.FilterDeadBlock)
	r, err := Run(Options{Benchmark: "mcf", Config: cfg, MaxInstructions: 100_000, Warmup: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if r.Filter != "deadblock" {
		t.Fatalf("filter label = %q", r.Filter)
	}
	// The gate must actually drop something on a pollution-heavy workload.
	if r.Prefetches.Filtered == 0 {
		t.Fatal("dead-block gate dropped nothing on mcf")
	}
}

func TestDeadBlockGateProtectsLiveLines(t *testing.T) {
	// On the stream micro-workload every line is touched again soon, so
	// victims look live and the gate should be strict; on random, victims
	// are never re-touched and the gate should learn to open up.
	strict, err := Run(Options{Benchmark: "stream",
		Config: config.Default().WithFilter(config.FilterDeadBlock), MaxInstructions: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Run(Options{Benchmark: "random",
		Config: config.Default().WithFilter(config.FilterDeadBlock), MaxInstructions: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	strictRate := stats.SafeRatio(float64(strict.Prefetches.Filtered),
		float64(strict.Prefetches.Filtered+strict.Prefetches.Issued))
	looseRate := stats.SafeRatio(float64(loose.Prefetches.Filtered),
		float64(loose.Prefetches.Filtered+loose.Prefetches.Issued))
	if looseRate >= strictRate {
		t.Fatalf("dead-block gate: stream reject rate %.2f should exceed random %.2f",
			strictRate, looseRate)
	}
}

func TestMicroModelsRun(t *testing.T) {
	for _, bench := range []string{"stream", "random", "phased"} {
		r, err := Run(Options{Benchmark: bench, Config: config.Default(), MaxInstructions: 60_000, Warmup: 10_000})
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if r.Instructions != 60_000 {
			t.Fatalf("%s: retired %d", bench, r.Instructions)
		}
	}
}

func TestStreamLovesPrefetchingRandomHatesIt(t *testing.T) {
	// The two micro models bracket the prefetching design space: stream's
	// prefetches are nearly all good, random's nearly all bad.
	s, err := Run(Options{Benchmark: "stream", Config: config.Default(), MaxInstructions: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(Options{Benchmark: "random", Config: config.Default(), MaxInstructions: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	if s.Prefetches.GoodFraction() < 0.8 {
		t.Fatalf("stream good fraction %.2f, want > 0.8", s.Prefetches.GoodFraction())
	}
	if r.Prefetches.GoodFraction() > 0.2 {
		t.Fatalf("random good fraction %.2f, want < 0.2", r.Prefetches.GoodFraction())
	}
}

func TestTaxonomyOptionPopulatesRun(t *testing.T) {
	r, err := Run(Options{Benchmark: "em3d", Config: config.Default(),
		MaxInstructions: 100_000, Warmup: 20_000, Taxonomy: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Taxonomy == nil {
		t.Fatal("taxonomy counts missing")
	}
	if r.Taxonomy.Total() == 0 {
		t.Fatal("taxonomy resolved nothing")
	}
	// The 4-way projection must be in the same ballpark as the 2-way
	// hardware classification (window heuristics allow modest drift).
	good, bad := r.Taxonomy.GoodBad()
	if good+bad == 0 || r.Prefetches.Classified() == 0 {
		t.Fatal("nothing classified")
	}
	ratio := float64(good+bad) / float64(r.Prefetches.Classified())
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("taxonomy total %d vs classified %d: drift too large", good+bad, r.Prefetches.Classified())
	}
}

// TestCalibrationBands is the workload-calibration regression guard:
// every paper benchmark's no-prefetch miss rates must stay in the same
// regime as Table 2 (see EXPERIMENTS.md for the exact values measured at
// full scale).
func TestCalibrationBands(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration needs full-size runs")
	}
	cfg := NoPrefetchConfig(config.Default())
	for _, spec := range workload.Paper() {
		r, err := Run(Options{Benchmark: spec.Name, Config: cfg,
			MaxInstructions: 2_000_000, Warmup: 1_000_000})
		if err != nil {
			t.Fatal(err)
		}
		l1 := r.L1MissRate()
		if l1 < spec.PaperL1Miss/2.5 || l1 > spec.PaperL1Miss*2.5 {
			t.Errorf("%s: L1 miss %.4f outside 2.5x band of paper %.4f",
				spec.Name, l1, spec.PaperL1Miss)
		}
		// L2 regime: near-zero benchmarks stay < 10%; capacity-bound ones
		// stay in double digits.
		l2 := r.L2MissRate()
		if spec.PaperL2Miss < 0.05 && l2 > 0.12 {
			t.Errorf("%s: L2 miss %.4f should be near-zero (paper %.4f)",
				spec.Name, l2, spec.PaperL2Miss)
		}
		if spec.PaperL2Miss > 0.20 && (l2 < 0.08 || l2 > 0.60) {
			t.Errorf("%s: L2 miss %.4f should be capacity-bound like paper's %.4f",
				spec.Name, l2, spec.PaperL2Miss)
		}
	}
}
