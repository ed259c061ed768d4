package experiments

import (
	"context"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/report"
	"repro/internal/stats"
)

// configDefaultForTest returns the default machine for cache-concurrency
// tests.
func configDefaultForTest() config.Config { return config.Default() }

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"table1", "table2",
		"fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"baselines", "extras", "ablation", "taxonomy", "energy", "adaptivity", "variance", "multiprog", "aggression", "memlat", "filters", "generators", "traces", "iprefetch"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: got %v, want %v", got, want)
		}
	}
}

func TestByID(t *testing.T) {
	e, ok := ByID("fig6")
	if !ok || e.ID != "fig6" || e.Run == nil {
		t.Fatalf("ByID(fig6) = %+v, %v", e, ok)
	}
	if _, ok := ByID("fig99"); ok {
		t.Fatal("unknown ID should miss")
	}
}

func TestTable1Instant(t *testing.T) {
	p := DefaultParams()
	e, _ := ByID("table1")
	tab, err := e.Run(context.Background(), &p)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	for _, want := range []string{"8KB", "512KB", "150 core cycles", "4096 entries"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 missing %q:\n%s", want, out)
		}
	}
}

// smallParams shrink the runs so experiment plumbing is testable quickly.
func smallParams() Params {
	return Params{
		Instructions: 40_000,
		Warmup:       10_000,
		Seed:         1,
		Benchmarks:   []string{"fpppp", "mcf"},
	}
}

func TestFig1Small(t *testing.T) {
	p := smallParams()
	e, _ := ByID("fig1")
	tab, err := e.Run(context.Background(), &p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	out := tab.String()
	if !strings.Contains(out, "fpppp") || !strings.Contains(out, "mcf") {
		t.Fatalf("benchmarks missing:\n%s", out)
	}
}

func TestFig6Small(t *testing.T) {
	p := smallParams()
	e, _ := ByID("fig6")
	tab, err := e.Run(context.Background(), &p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Columns) != 6 {
		t.Fatalf("columns = %v", tab.Columns)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestCacheReusesRuns(t *testing.T) {
	p := smallParams()
	e1, _ := ByID("fig4")
	if _, err := e1.Run(context.Background(), &p); err != nil {
		t.Fatal(err)
	}
	cached := len(p.cache)
	// fig5 and fig6 use the same (benchmark, config) runs.
	e2, _ := ByID("fig5")
	if _, err := e2.Run(context.Background(), &p); err != nil {
		t.Fatal(err)
	}
	if len(p.cache) != cached {
		t.Fatalf("fig5 should be fully cache-served: %d -> %d entries", cached, len(p.cache))
	}
}

func TestUnknownBenchmarkSurfaces(t *testing.T) {
	p := smallParams()
	p.Benchmarks = []string{"nope"}
	e, _ := ByID("table2")
	if _, err := e.Run(context.Background(), &p); err == nil {
		t.Fatal("unknown benchmark should error")
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.Instructions != 2_000_000 || p.Warmup != 1_000_000 || p.Seed != 1 {
		t.Fatalf("defaults = %+v", p)
	}
	if len(p.benchmarks()) != 10 {
		t.Fatalf("default benchmarks = %v", p.benchmarks())
	}
}

// TestFiguresShareGridRuns: figures drawn from one grid share its runs,
// so after fig4 neither fig5 nor fig6 simulates anything; and the
// standard matrix holds every figure's grid, so after it no figure
// simulates anything either.
func TestFiguresShareGridRuns(t *testing.T) {
	ctx := context.Background()
	runAll := func(p *Params, ids ...string) {
		t.Helper()
		for _, id := range ids {
			e, _ := ByID(id)
			if _, err := e.Run(ctx, p); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}
	}
	p := Params{Instructions: 30_000, Warmup: 10_000, Seed: 1, Benchmarks: []string{"fpppp"}, Workers: 4}
	runAll(&p, "fig4")
	grid := p.CachedRuns()
	runAll(&p, "fig5", "fig6")
	if p.CachedRuns() != grid {
		t.Fatalf("fig5 and fig6 ran %d simulations after fig4", p.CachedRuns()-grid)
	}

	p = Params{Instructions: 30_000, Warmup: 10_000, Seed: 1, Benchmarks: []string{"fpppp"}, Workers: 4}
	if err := p.RunCells(ctx, p.StandardMatrix()); err != nil {
		t.Fatal(err)
	}
	matrix := p.CachedRuns()
	if matrix < 10 {
		t.Fatalf("the standard matrix cached only %d runs", matrix)
	}
	runAll(&p, "table2", "fig1", "fig4", "fig10", "fig13", "fig15")
	if p.CachedRuns() != matrix {
		t.Fatalf("figures ran %d uncached simulations after the standard matrix", p.CachedRuns()-matrix)
	}
}

// TestPrewarmSurfacesErrors: an unknown benchmark's failure surfaces
// from a RunCells batch. (The name is that of the batch step RunCells
// replaced.)
func TestPrewarmSurfacesErrors(t *testing.T) {
	p := Params{Instructions: 1000, Warmup: 0, Seed: 1, Benchmarks: []string{"not-a-benchmark"}, Workers: 2}
	if err := p.RunCells(context.Background(), p.StandardMatrix()); err == nil {
		t.Fatal("unknown benchmark must surface from RunCells")
	}
}

func TestConcurrentRunsConsistent(t *testing.T) {
	// Hammer the memo cache from many goroutines; deterministic simulation
	// means every stored result for a key must be identical.
	p := Params{Instructions: 20_000, Warmup: 5_000, Seed: 1}
	cfg := configDefaultForTest()
	var wg sync.WaitGroup
	results := make([]uint64, 8)
	for i := range results {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			r, err := p.RunSim(context.Background(), "fpppp", cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[slot] = r.Cycles
		}(i)
	}
	wg.Wait()
	for _, c := range results[1:] {
		if c != results[0] {
			t.Fatalf("concurrent runs disagreed: %v", results)
		}
	}
}

// TestZeroWarmupRunsNone pins what Params.Warmup 0 means: no warmup,
// the same simulation as a negative warmup. sim.Options reads 0 as
// DefaultWarmup, so a Params that passed 0 through ran 1M warmup
// instructions under a cache key that says w=0.
func TestZeroWarmupRunsNone(t *testing.T) {
	cfg := config.Default()
	for name, run := range map[string]func(p *Params) (stats.Run, error){
		"memoized": func(p *Params) (stats.Run, error) { return p.RunSim(context.Background(), "mcf", cfg) },
		"instrumented": func(p *Params) (stats.Run, error) {
			return runTaxonomyInstrumented(context.Background(), p, "mcf", cfg)
		},
	} {
		var runs [2]stats.Run
		for i, warmup := range []int64{0, -1} {
			r, err := run(&Params{Instructions: 20_000, Warmup: warmup, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = r
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			t.Errorf("%s: Warmup 0 ran %d cycles, no warmup %d", name, runs[0].Cycles, runs[1].Cycles)
		}
	}
}

// updateGolden rewrites testdata/experiments_small.golden from the
// current code: go test ./internal/experiments/ -run TestEveryExperimentRunsSmall -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/experiments_small.golden")

const goldenPath = "testdata/experiments_small.golden"

// TestEveryExperimentRunsSmall executes the entire registry at a reduced
// budget on two benchmarks and the sample trace corpus, at 1 and 4
// workers, and compares each experiment's rendered text with its section
// of testdata/experiments_small.golden (the full-scale numbers live in
// results_full.txt). Run with -update to rewrite the file.
func TestEveryExperimentRunsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is not short")
	}
	// The traces experiment reads the process-wide corpus: register it
	// up front so its section does not depend on test order.
	registerSampleCorpus(t)
	want := map[string]string{}
	if !*updateGolden {
		b, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		want = splitGolden(string(b))
	}
	params := map[int]*Params{}
	for _, workers := range goldenWorkers {
		params[workers] = &Params{Instructions: 30_000, Warmup: 10_000, Seed: 1, Benchmarks: []string{"wave5", "mcf"}, Workers: workers}
	}
	var golden strings.Builder
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			for _, workers := range goldenWorkers {
				tab, err := e.Run(context.Background(), params[workers])
				if err != nil {
					t.Fatalf("%s (workers=%d): %v", e.ID, workers, err)
				}
				if len(tab.Rows) == 0 || tab.Title == "" {
					t.Fatalf("%s (workers=%d): %d rows, title %q", e.ID, workers, len(tab.Rows), tab.Title)
				}
				var b strings.Builder
				if err := tab.WriteCSV(&b); err != nil {
					t.Fatalf("%s CSV: %v", e.ID, err)
				}
				got := tab.String()
				if *updateGolden {
					if workers == goldenWorkers[0] {
						fmt.Fprintf(&golden, "=== %s ===\n%s", e.ID, got)
					}
					continue
				}
				if got != want[e.ID] {
					t.Errorf("%s (workers=%d) differs from %s:\n%s", e.ID, workers, goldenPath, firstLinesDiffering(got, want[e.ID]))
				}
			}
		})
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// goldenWorkers are the worker counts TestEveryExperimentRunsSmall runs
// the registry at; every count must render the same text.
var goldenWorkers = []int{1, 4}

// splitGolden splits the golden file into its per-experiment sections,
// each headed by a "=== <id> ===" line.
func splitGolden(s string) map[string]string {
	sections := map[string]string{}
	id := ""
	for _, line := range strings.SplitAfter(s, "\n") {
		if rest, ok := strings.CutPrefix(line, "=== "); ok {
			id = strings.TrimSuffix(rest, " ===\n")
			continue
		}
		sections[id] += line
	}
	return sections
}

// firstLinesDiffering prints the first differing line of got and want
// with up to two lines of context after it.
func firstLinesDiffering(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		if i < len(g) && i < len(w) && g[i] == w[i] {
			continue
		}
		var b strings.Builder
		for j := i; j < i+3; j++ {
			if j < len(g) {
				fmt.Fprintf(&b, "line %d got:  %q\n", j+1, g[j])
			}
			if j < len(w) {
				fmt.Fprintf(&b, "line %d want: %q\n", j+1, w[j])
			}
		}
		return b.String()
	}
	return ""
}

// TestCacheKeyIncludesSeedAndBudget pins the memo-cache key's contract:
// two Params that differ only in seed, instruction budget, or warmup
// must never share a cache entry, and the key must not depend on a
// caller having remembered to stamp Params.Seed into the Config (the
// key stamps it itself). Regression test for a bug where a Config
// carrying a stale Seed could alias runs across seeds.
func TestCacheKeyIncludesSeedAndBudget(t *testing.T) {
	base := Params{Instructions: 1000, Warmup: 100, Seed: 1}
	cfg := config.Default()

	variants := map[string]Params{
		"seed":         {Instructions: 1000, Warmup: 100, Seed: 2},
		"instructions": {Instructions: 2000, Warmup: 100, Seed: 1},
		"warmup":       {Instructions: 1000, Warmup: 200, Seed: 1},
	}
	baseKey := base.CacheKey("mcf", cfg)
	for name, p := range variants {
		if got := p.CacheKey("mcf", cfg); got == baseKey {
			t.Errorf("cache key ignores %s: %q", name, got)
		}
	}

	// The key must override any seed already present in the Config with
	// the Params seed, so a stale cfg.Seed cannot alias across seeds.
	stale := cfg
	stale.Seed = 999
	if base.CacheKey("mcf", stale) != base.CacheKey("mcf", cfg) {
		t.Error("cache key depends on caller-stamped cfg.Seed instead of Params.Seed")
	}

	// Distinct configs (e.g. different filters) must yield distinct keys.
	if base.CacheKey("mcf", cfg.WithFilter(config.FilterPC)) == baseKey {
		t.Error("cache key ignores the filter configuration")
	}
	// And distinct benchmarks must, too.
	if base.CacheKey("gzip", cfg) == baseKey {
		t.Error("cache key ignores the benchmark name")
	}
}

func TestFiltersExperimentSmall(t *testing.T) {
	p := smallParams()
	e, ok := ByID("filters")
	if !ok {
		t.Fatal("filters experiment not registered")
	}
	tab, err := e.Run(context.Background(), &p)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	for _, want := range []string{"perceptron", "bloom", "tournament", "pa", "pc", "none", "mcf", "fpppp"} {
		if !strings.Contains(out, want) {
			t.Fatalf("filters table missing %q:\n%s", want, out)
		}
	}
}

func TestFilterComparisonRejectsUnknownKind(t *testing.T) {
	p := smallParams()
	if _, err := p.Sweep(context.Background(), nil, nil, []string{"bogus"}); err == nil {
		t.Fatal("unknown kind must error")
	} else if !strings.Contains(err.Error(), "registered") {
		t.Fatalf("error should list registered kinds, got: %v", err)
	}
	if _, err := p.Sweep(context.Background(), nil, nil, []string{"static"}); err == nil {
		t.Fatal("static kind must be refused in sweeps")
	}
}

func TestFilterComparisonBaselineDelta(t *testing.T) {
	p := smallParams()
	p.Benchmarks, p.Workers = []string{"mcf"}, 2
	cells, err := p.Sweep(context.Background(), nil, nil, []string{"pa", "table-pa"})
	if err != nil {
		t.Fatal(err)
	}
	rows := Rows(cells)
	// none + pa (table-pa dedups onto pa) = 2 rows.
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (alias must dedup): %+v", len(rows), rows)
	}
	var none, pa *report.ComparisonRow
	for i := range rows {
		switch rows[i].Filter {
		case "none":
			none = &rows[i]
		case "pa":
			pa = &rows[i]
		}
	}
	if none == nil || pa == nil {
		t.Fatalf("missing rows: %+v", rows)
	}
	if none.IPCDelta != 0 {
		t.Errorf("baseline IPC delta = %g, want 0", none.IPCDelta)
	}
	if pa.IPC-none.IPC != pa.IPCDelta {
		t.Errorf("pa IPC delta inconsistent: %g vs %g-%g", pa.IPCDelta, pa.IPC, none.IPC)
	}
	if none.Filtered != 0 {
		t.Errorf("unfiltered run reports %d filtered prefetches", none.Filtered)
	}
	if pa.Accuracy < 0 || pa.Accuracy > 1 || pa.Coverage < 0 || pa.Coverage > 1 {
		t.Errorf("derived metrics out of range: %+v", *pa)
	}
}

// TestSweepAxis: the generator and instruction-prefetcher name lists
// pick at most one third axis, and naming both is an error, not a
// silently dropped axis.
func TestSweepAxis(t *testing.T) {
	for _, tc := range []struct {
		name         string
		gens, iprefs []string
		axis         *Axis
		values       []string
		err          string
	}{
		{"no axis", nil, nil, nil, nil, ""},
		{"generators", []string{"nsp", "ghb"}, nil, GeneratorAxis, []string{"nsp", "ghb"}, ""},
		{"iprefetch", nil, []string{"all"}, IPrefetchAxis, []string{"all"}, ""},
		{"both", []string{"nsp"}, []string{"mana"}, nil, nil, "cannot be combined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			axis, values, err := SweepAxis(tc.gens, tc.iprefs)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if axis != tc.axis || !reflect.DeepEqual(values, tc.values) {
				t.Fatalf("got (%v, %v), want (%v, %v)", axis, values, tc.axis, tc.values)
			}
		})
	}
}

// TestStaticRowsFollowSeed: the runs that bypass the run cache — the
// static-profile rows of baselines and extras (staticRuns), ablation's
// tagged and hash-index rows, adaptivity's runs — are built by
// simOptions, which must run them under Params.Seed as Simulate does.
// Otherwise they stay at the default seed while every other row of the
// same table moves with -seed.
func TestStaticRowsFollowSeed(t *testing.T) {
	static := func(seed uint64) stats.Run {
		t.Helper()
		p := &Params{Instructions: 20_000, Warmup: 5_000, Seed: seed, Benchmarks: []string{"mcf"}}
		if got := p.simOptions("mcf", config.Default()).Config.Seed; got != seed {
			t.Fatalf("simOptions runs seed %d, want Params.Seed %d", got, seed)
		}
		runs, err := p.staticRuns(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return runs[0]
	}
	if a, b := static(1), static(2); reflect.DeepEqual(a, b) {
		t.Errorf("the static-profile run of mcf reads the same at seeds 1 and 2 (IPC %.4f): it ignores Params.Seed", a.IPC())
	}
}
