// Benchmark harness: one testing.B benchmark per table and figure of the
// paper, each regenerating that artifact end to end (workload generation,
// simulation of every scenario the figure compares, and metric
// extraction), plus micro-benchmarks of the core structures.
//
// The per-figure benchmarks run at a reduced instruction budget so
// `go test -bench=.` completes in minutes; `cmd/pfexperiments` runs the
// same experiments at full scale and is what EXPERIMENTS.md records.
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	pfilter "repro/internal/filter"
	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/tracefile"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// benchParams is the reduced budget per figure benchmark.
func benchParams() experiments.Params {
	return experiments.Params{Instructions: 120_000, Warmup: 40_000, Seed: 1}
}

// runExperiment drives one paper artifact per iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := benchParams()
		tab, err := e.Run(context.Background(), &p)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkTable1(b *testing.B)    { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)    { runExperiment(b, "table2") }
func BenchmarkFig1(b *testing.B)      { runExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)      { runExperiment(b, "fig2") }
func BenchmarkFig4(b *testing.B)      { runExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)      { runExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)      { runExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)      { runExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)      { runExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)      { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)     { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)     { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)     { runExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)     { runExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)     { runExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)     { runExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)     { runExperiment(b, "fig16") }
func BenchmarkBaselines(b *testing.B) { runExperiment(b, "baselines") }
func BenchmarkExtras(b *testing.B)    { runExperiment(b, "extras") }
func BenchmarkAblation(b *testing.B)  { runExperiment(b, "ablation") }
func BenchmarkTaxonomy(b *testing.B)  { runExperiment(b, "taxonomy") }
func BenchmarkEnergy(b *testing.B)    { runExperiment(b, "energy") }
func BenchmarkFilters(b *testing.B)   { runExperiment(b, "filters") }

// BenchmarkAblationIndexing compares direct vs multiplicative-hash
// indexing of the history table on one aliasing-prone workload — the
// indexing design option DESIGN.md calls out.
func BenchmarkAblationIndexing(b *testing.B) {
	for _, mode := range []struct {
		name string
		mk   func(int) (repro.Filter, error)
	}{
		{"direct", repro.NewPAFilter},
		{"hash", repro.NewHashedPAFilter},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f, err := mode.mk(4096)
				if err != nil {
					b.Fatal(err)
				}
				run, err := repro.Simulate(repro.Options{
					Benchmark:       "gzip",
					Config:          repro.DefaultConfig(),
					Filter:          f,
					MaxInstructions: 120_000,
					Warmup:          40_000,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(run.IPC(), "IPC")
			}
		})
	}
}

// --- Micro-benchmarks of the primary structures ---------------------------

func BenchmarkHistoryTableLookup(b *testing.B) {
	ht, err := core.NewHistoryTable(4096, 2, 2, core.IndexDirect)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	sink := false
	for i := 0; i < b.N; i++ {
		sink = ht.Predict(uint64(i))
	}
	_ = sink
}

func BenchmarkHistoryTableTrain(b *testing.B) {
	ht, _ := core.NewHistoryTable(4096, 2, 2, core.IndexDirect)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ht.Update(uint64(i), i&1 == 0)
	}
}

func BenchmarkFilterAllow(b *testing.B) {
	f, _ := core.NewPC(4096, 2, 2, core.IndexDirect)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Allow(core.Request{LineAddr: uint64(i), TriggerPC: uint64(i) * 4})
	}
}

// BenchmarkFilterPredict compares the per-prefetch decision cost of the
// pollution-filter backends: the paper's 2-bit table against the learned
// backends from internal/filter. The stream mixes lines and PCs so table
// rows and perceptron features don't degenerate onto one entry.
func BenchmarkFilterPredict(b *testing.B) {
	mk := func(kind config.FilterKind) core.Filter {
		cfg := config.Default().Filter
		cfg.Kind = kind
		f, err := pfilter.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	for _, bc := range []struct {
		name string
		f    core.Filter
	}{
		{"table-pa", mk(config.FilterPA)},
		{"perceptron", mk(config.FilterPerceptron)},
		{"bloom", mk(config.FilterBloom)},
		{"tournament", mk(config.FilterTournament)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			// Warm the structures with mixed-outcome feedback first.
			for i := uint64(0); i < 8192; i++ {
				bc.f.Train(core.Feedback{
					LineAddr:   i * 0x40,
					TriggerPC:  0x400000 + i%257*4,
					Referenced: i%3 == 0,
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.f.Allow(core.Request{
					LineAddr:  uint64(i) * 0x40,
					TriggerPC: 0x400000 + uint64(i)%257*4,
				})
			}
		})
	}
}

// BenchmarkFilterTrain measures the eviction-time training cost per
// backend (the hierarchy pays this on every L1 eviction of a prefetched
// line).
func BenchmarkFilterTrain(b *testing.B) {
	mk := func(kind config.FilterKind) core.Filter {
		cfg := config.Default().Filter
		cfg.Kind = kind
		f, err := pfilter.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	for _, bc := range []struct {
		name string
		f    core.Filter
	}{
		{"table-pa", mk(config.FilterPA)},
		{"perceptron", mk(config.FilterPerceptron)},
		{"bloom", mk(config.FilterBloom)},
		{"tournament", mk(config.FilterTournament)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.f.Train(core.Feedback{
					LineAddr:   uint64(i) * 0x40,
					TriggerPC:  0x400000 + uint64(i)%257*4,
					Referenced: i&1 == 0,
				})
			}
		})
	}
}

func BenchmarkPrefetchQueue(b *testing.B) {
	q, _ := prefetch.NewQueue(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Enqueue(prefetch.Candidate{LineAddr: uint64(i)}, uint64(i))
		if i%2 == 1 {
			q.Dequeue()
			q.Dequeue()
		}
	}
}

func BenchmarkTraceEncode(b *testing.B) {
	spec, _ := workload.ByName("gcc")
	recs := isa.Collect(spec.New(1), 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := tracefile.Encode(&buf, recs, tracefile.WriterOptions{}); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func BenchmarkTraceDecode(b *testing.B) {
	spec, _ := workload.ByName("gcc")
	recs := isa.Collect(spec.New(1), 100_000)
	var buf bytes.Buffer
	if err := tracefile.Encode(&buf, recs, tracefile.WriterOptions{}); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tracefile.Decode(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	for _, name := range []string{"fpppp", "mcf"} {
		b.Run(name, func(b *testing.B) {
			spec, _ := workload.ByName(name)
			src := spec.New(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := src.Next(); !ok {
					b.Fatal("model exhausted")
				}
			}
		})
	}
}

// recordSourceSets numbers BenchmarkRecordSource's trace registrations:
// the workload registry is process-wide and a name may register only one
// file, so every invocation registers its own names.
var recordSourceSets atomic.Int64

// writeRecordSourceCorpus encodes 120k records of the gcc model and
// converts the checked-in ChampSim fixture into dir, registers both, and
// returns their benchmark names.
func writeRecordSourceCorpus(b *testing.B, dir string) (gcc, fixture string) {
	b.Helper()
	tag := fmt.Sprintf("-recsrc%d", recordSourceSets.Add(1))
	spec, _ := workload.ByName("gcc")
	var enc bytes.Buffer
	recs := isa.Collect(spec.New(1), 120_000)
	if err := tracefile.Encode(&enc, recs, tracefile.WriterOptions{}); err != nil {
		b.Fatal(err)
	}
	gz, err := os.Open(filepath.Join("internal", "tracefile", "testdata", "sample.champsim.gz"))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = gz.Close() }() // read-only
	raw, err := tracefile.MaybeGzip(gz)
	if err != nil {
		b.Fatal(err)
	}
	var conv bytes.Buffer
	if _, err := tracefile.ConvertChampSim(raw, &conv, tracefile.WriterOptions{}); err != nil {
		b.Fatal(err)
	}
	m := tracefile.Manifest{Version: tracefile.ManifestVersion}
	for _, tr := range []struct {
		name string
		data []byte
	}{{"gcc" + tag, enc.Bytes()}, {"champsim" + tag, conv.Bytes()}} {
		file := tr.name + ".pftc"
		if err := os.WriteFile(filepath.Join(dir, file), tr.data, 0o644); err != nil {
			b.Fatal(err)
		}
		info, err := tracefile.Inspect(bytes.NewReader(tr.data))
		if err != nil {
			b.Fatal(err)
		}
		m.Traces = append(m.Traces, tracefile.ManifestEntry{
			Name: tr.name, File: file, SHA256: info.Fingerprint,
			Records: info.Records, FormatVersion: tracefile.Version,
		})
	}
	manifest := filepath.Join(dir, "corpus.json")
	if err := tracefile.SaveManifest(manifest, m); err != nil {
		b.Fatal(err)
	}
	if _, err := tracefile.RegisterCorpus(config.TraceConfig{Manifest: manifest}); err != nil {
		b.Fatal(err)
	}
	return tracefile.BenchPrefix + "gcc" + tag, tracefile.BenchPrefix + "champsim" + tag
}

// BenchmarkRecordSource is the record-source rung of the per-layer
// ledger: the cost of handing one record to the core, for the synthetic
// generators and for PFTC replay (which loops back to the trace's start
// at its end), read one record at a time through Next and in batches of
// 256 through isa.Fill. One op is one record.
func BenchmarkRecordSource(b *testing.B) {
	gcc, fixture := writeRecordSourceCorpus(b, b.TempDir())
	sources := []struct{ name, bench string }{
		{"gen/gcc", "gcc"}, {"gen/mcf", "mcf"},
		{"pftc/gcc", gcc}, {"pftc/champsim-fixture", fixture},
	}
	for _, s := range sources {
		spec, ok := workload.ByName(s.bench)
		if !ok {
			b.Fatalf("benchmark %q not registered", s.bench)
		}
		b.Run(s.name+"/next", func(b *testing.B) {
			src := spec.New(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := src.Next(); !ok {
					b.Fatal("source ended")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/record")
		})
		b.Run(s.name+"/batch", func(b *testing.B) {
			src := spec.New(1)
			var buf [256]isa.Record
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; {
				k := isa.Fill(src, buf[:min(len(buf), b.N-n)])
				if k == 0 {
					b.Fatal("source ended")
				}
				n += k
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/record")
		})
	}
}

// BenchmarkSimulatorThroughput reports simulated instructions per second
// for the whole stack (workload -> CPU -> hierarchy -> filter).
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, kind := range []config.FilterKind{config.FilterNone, config.FilterPA} {
		b.Run(string(kind), func(b *testing.B) {
			b.ReportAllocs()
			const n = 100_000
			for i := 0; i < b.N; i++ {
				_, err := sim.Run(sim.Options{
					Benchmark:       "wave5",
					Config:          config.Default().WithFilter(kind),
					MaxInstructions: n,
					Warmup:          -1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
		})
	}
}

// BenchmarkCachePressure exercises the L1 model alone under a mixed
// hit/miss stream, isolating the cache from the rest of the stack.
func BenchmarkCachePressure(b *testing.B) {
	h := xrand.New(1)
	c := config.Default().L1
	cc, err := newCacheForBench(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		la := h.Uint64n(1 << 12)
		if _, hit := cc.Lookup(la); !hit {
			cc.Insert(la)
		}
	}
}

func init() {
	// Fail fast if the experiment registry ever drifts from the
	// artifacts the benchmarks above cover. The "traces" experiment has
	// no benchmark entry: without a registered corpus it renders a
	// note-only table, so there is nothing stable to time here.
	if got := len(experiments.All()); got != 31 {
		panic(fmt.Sprintf("bench harness out of date: %d experiments registered", got))
	}
}

// BenchmarkGeneratorObserve measures the per-access decision cost of
// every registered prefetch generator (internal/prefetch registry) on a
// mixed demand stream: a strided component so the local-delta and
// stride tables train, an irregular component so correlation and GHB
// chains churn, and a hit/miss mix so the latency and shadow tables see
// both edges. Pairs with BenchmarkFilterPredict: generator cost on one
// side of the pipeline, filter cost on the other.
func BenchmarkGeneratorObserve(b *testing.B) {
	for _, kind := range prefetch.Sweepable() {
		b.Run(kind, func(b *testing.B) {
			l2, err := cache.New[cache.L2Line](config.Default().L2, xrand.New(1))
			if err != nil {
				b.Fatal(err)
			}
			// WithGenerator fills the generator's default table budgets;
			// Default() leaves zoo fields unset to keep canonical
			// encodings stable.
			pcfg := config.Default().WithGenerator(config.PrefetchKind(kind)).Prefetch
			p, err := prefetch.New(config.PrefetchKind(kind), pcfg, prefetch.Env{L2: l2})
			if err != nil {
				b.Fatal(err)
			}
			emit := func(prefetch.Candidate) {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := uint64(i)
				ev := prefetch.Event{
					PC:       0x400000 + n%257*4,
					LineAddr: 1<<20 + n%8 + n/8*(1+n%3),
					Cycle:    n * 4,
					L1Hit:    n%4 == 0,
					L2Hit:    n%4 == 1,
				}
				p.Observe(ev, emit)
			}
		})
	}
}
