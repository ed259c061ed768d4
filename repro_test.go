package repro_test

import (
	"bytes"
	"strings"
	"testing"

	"repro"
)

func TestPublicQuickstartFlow(t *testing.T) {
	cfg := repro.DefaultConfig().WithFilter(repro.FilterPC)
	run, err := repro.Simulate(repro.Options{
		Benchmark:       "mcf",
		Config:          cfg,
		MaxInstructions: 100_000,
		Warmup:          20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.IPC() <= 0 {
		t.Fatal("IPC should be positive")
	}
	if run.Filter != "pc" {
		t.Fatalf("filter = %q", run.Filter)
	}
}

func TestPublicBenchmarksList(t *testing.T) {
	if got := len(repro.PaperBenchmarks()); got != 10 {
		t.Fatalf("paper benchmarks = %d", got)
	}
	if got := len(repro.Benchmarks()); got < 13 {
		t.Fatalf("all benchmarks = %d (ten paper + micro models)", got)
	}
	names := repro.BenchmarkNames()
	if names[0] != "bh" || names[9] != "mcf" {
		t.Fatalf("names = %v", names)
	}
}

func TestPublicConfigs(t *testing.T) {
	if repro.DefaultConfig().L1.SizeBytes != 8192 {
		t.Fatal("default should be 8KB")
	}
	if repro.Config16K().L1.SizeBytes != 16*1024 {
		t.Fatal("16K preset wrong")
	}
	c := repro.Config32K()
	if c.L1.SizeBytes != 32*1024 || c.L1.LatencyCycles != 4 {
		t.Fatal("32K preset wrong")
	}
}

func TestPublicFilterConstructors(t *testing.T) {
	for _, mk := range []func(int) (repro.Filter, error){
		repro.NewPAFilter, repro.NewPCFilter, repro.NewHashedPAFilter,
	} {
		f, err := mk(4096)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Allow(repro.FilterRequest{LineAddr: 1}) {
			t.Fatal("fresh filter should allow")
		}
		if _, err := mk(1000); err == nil {
			t.Fatal("non-pow2 entries should fail")
		}
	}
}

func TestPublicCustomFilterInSimulation(t *testing.T) {
	// A custom filter keyed on the XOR of address and trigger PC.
	f, err := repro.NewCustomFilter("xor", func(la, pc uint64) uint64 { return la ^ (pc >> 2) }, 4096)
	if err != nil {
		t.Fatal(err)
	}
	run, err := repro.Simulate(repro.Options{
		Benchmark:       "em3d",
		Config:          repro.DefaultConfig(),
		Filter:          f,
		MaxInstructions: 100_000,
		Warmup:          20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Filter != "xor" {
		t.Fatalf("filter = %q", run.Filter)
	}
	if run.FilterQueries == 0 {
		t.Fatal("custom filter should be queried")
	}
}

func TestPublicTraceRoundTrip(t *testing.T) {
	recs := []repro.Record{
		{Op: 1, PC: 0x400000, Addr: 0x1000},                // load
		{Op: 0, PC: 0x400004},                              // alu
		{Op: 3, PC: 0x400008, Addr: 0x400020, Taken: true}, // branch
	}
	var buf bytes.Buffer
	if err := repro.WriteTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := repro.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip %d records", len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
	// And a trace can drive a simulation through the public API.
	big := make([]repro.Record, 0, 20000)
	for i := 0; i < 20000; i++ {
		big = append(big, repro.Record{Op: 1, PC: uint64(0x400000 + (i%64)*4), Addr: uint64((i % 2048) * 32)})
	}
	run, err := repro.Simulate(repro.Options{
		Source:          repro.SliceSource(big),
		Config:          repro.DefaultConfig(),
		MaxInstructions: int64(len(big)),
		Warmup:          -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Instructions != uint64(len(big)) {
		t.Fatalf("instructions = %d", run.Instructions)
	}
}

func TestPublicExperimentsIndex(t *testing.T) {
	exps := repro.Experiments()
	if len(exps) != 31 {
		t.Fatalf("experiments = %d", len(exps))
	}
	if _, ok := repro.ExperimentByID("fig6"); !ok {
		t.Fatal("fig6 should exist")
	}
	p := repro.DefaultExperimentParams()
	if p.Instructions == 0 {
		t.Fatal("default params empty")
	}
}

func TestPublicStaticFilterFlow(t *testing.T) {
	run, err := repro.SimulateStatic(repro.Options{
		Benchmark:       "gcc",
		Config:          repro.DefaultConfig(),
		MaxInstructions: 60_000,
		Warmup:          20_000,
	}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if run.Filter != "pa-static" {
		t.Fatalf("filter = %q", run.Filter)
	}
}

// TestHeadlineReproduction is the repo's flagship integration test: on the
// pollution-bound workloads the pollution filter must deliver the paper's
// qualitative result — the bulk of bad prefetches eliminated with an IPC
// improvement — at test-sized instruction budgets.
func TestHeadlineReproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("headline reproduction needs full-size runs")
	}
	base := repro.DefaultConfig()
	var meanNone, meanPC float64
	benches := []string{"em3d", "perimeter", "gap", "mcf"}
	for _, bench := range benches {
		none, err := repro.Simulate(repro.Options{Benchmark: bench, Config: base, MaxInstructions: 400_000})
		if err != nil {
			t.Fatal(err)
		}
		pc, err := repro.Simulate(repro.Options{
			Benchmark: bench, Config: base.WithFilter(repro.FilterPC), MaxInstructions: 400_000})
		if err != nil {
			t.Fatal(err)
		}
		if pc.Prefetches.Bad*5 > none.Prefetches.Bad {
			t.Errorf("%s: bad prefetches %d -> %d (want >80%% reduction)",
				bench, none.Prefetches.Bad, pc.Prefetches.Bad)
		}
		meanNone += none.IPC()
		meanPC += pc.IPC()
	}
	if meanPC <= meanNone {
		t.Errorf("mean IPC with PC filter %.3f should beat baseline %.3f", meanPC/4, meanNone/4)
	}
}

func TestPublicAnalyzeTrace(t *testing.T) {
	var recs []repro.Record
	for i := 0; i < 1000; i++ {
		recs = append(recs, repro.Record{Op: 1, PC: uint64(0x400000 + (i%16)*4), Addr: uint64((i % 64) * 32)})
	}
	p, err := repro.AnalyzeTrace(repro.SliceSource(recs), 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Accesses != 1000 || p.Footprint != 64 {
		t.Fatalf("profile: %d accesses, %d lines", p.Accesses, p.Footprint)
	}
	if mr := p.MissRate(128); mr > 0.07 {
		t.Fatalf("a 64-line loop in a 128-line cache should mostly hit, got %v", mr)
	}
}

func TestPublicInterleave(t *testing.T) {
	a := repro.SliceSource([]repro.Record{{Op: 0, PC: 0x100}})
	b := repro.SliceSource([]repro.Record{{Op: 0, PC: 0x200}})
	src, err := repro.InterleaveSource(1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("interleave yielded %d records", n)
	}
	if _, err := repro.InterleaveSource(0, a); err == nil {
		t.Fatal("bad quantum should fail")
	}
}

func TestPublicTaggedFilters(t *testing.T) {
	for _, mk := range []func(int, uint) (repro.Filter, error){
		repro.NewTaggedPAFilter, repro.NewTaggedPCFilter,
	} {
		f, err := mk(4096, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Allow(repro.FilterRequest{LineAddr: 1}) {
			t.Fatal("fresh tagged filter should allow")
		}
	}
}

func TestPublicFilterZoo(t *testing.T) {
	kinds := repro.FilterBackends()
	sweep := repro.SweepableFilterBackends()
	if len(kinds) == 0 || len(sweep) == 0 {
		t.Fatalf("empty registry: kinds=%v sweep=%v", kinds, sweep)
	}
	for _, s := range sweep {
		if s == string(repro.FilterStatic) {
			t.Fatal("static must not be sweepable")
		}
	}
	for _, k := range []repro.FilterKind{
		repro.FilterPerceptron, repro.FilterBloom, repro.FilterTournament,
	} {
		cfg := repro.DefaultConfig().WithFilter(k).Filter
		f, err := repro.NewFilterBackend(cfg)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if !f.Allow(repro.FilterRequest{LineAddr: 0x1000}) {
			t.Fatalf("%s: fresh backend should allow a first touch", k)
		}
	}
	if _, err := repro.NewFilterBackend(repro.FilterConfig{Kind: "bogus", TableEntries: 64}); err == nil {
		t.Fatal("bogus kind should fail")
	}
}

func TestPublicLint(t *testing.T) {
	// The errcheck fixture is deliberately dirty; Lint must surface its
	// findings through the public wrapper in the canonical format.
	findings, err := repro.Lint(".", "./internal/lint/testdata/src/errs")
	if err != nil {
		t.Fatalf("Lint(errs fixture): %v", err)
	}
	if len(findings) == 0 {
		t.Fatal("errs fixture produced no findings")
	}
	for _, f := range findings {
		if !strings.Contains(f, "errcheck/discard") {
			t.Fatalf("unexpected finding %q", f)
		}
	}

	// A clean core package must lint clean.
	clean, err := repro.Lint(".", "./internal/prefetch")
	if err != nil {
		t.Fatalf("Lint(prefetch): %v", err)
	}
	if len(clean) != 0 {
		t.Fatalf("internal/prefetch should be clean, got %v", clean)
	}

	// The v2 dataflow analyzers surface through the same wrapper: the
	// fabric fixture is dirty across lockflow and ctxflow, the prefetch
	// fixture across hwbudget.
	dirty, err := repro.Lint(".", "./internal/lint/testdata/src/fabric")
	if err != nil {
		t.Fatalf("Lint(fabric fixture): %v", err)
	}
	for _, rule := range []string{"lockflow/blocking", "lockflow/leak", "ctxflow/background", "ctxflow/goroutine"} {
		found := false
		for _, f := range dirty {
			if strings.Contains(f, rule) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("fabric fixture surfaced no %s finding through repro.Lint; got %v", rule, dirty)
		}
	}
	hw, err := repro.Lint(".", "./internal/lint/testdata/src/prefetch")
	if err != nil {
		t.Fatalf("Lint(prefetch fixture): %v", err)
	}
	for _, rule := range []string{"hwbudget/map", "hwbudget/unsized", "hwbudget/growth"} {
		found := false
		for _, f := range hw {
			if strings.Contains(f, rule) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("prefetch fixture surfaced no %s finding through repro.Lint; got %v", rule, hw)
		}
	}
}
