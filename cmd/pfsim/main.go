// Command pfsim runs a single simulation: one benchmark on one machine
// configuration with one pollution-filter variant, and prints the full
// measurement set.
//
// Usage:
//
//	pfsim -bench mcf -filter pc -n 2000000
//	pfsim -bench gzip -filter pa -l1 32768 -l1lat 4 -ports 4
//	pfsim -bench wave5 -filter none -buffer
//	pfsim -tracein trace.pftc -filter pa
//
// Observability:
//
//	pfsim -bench mcf -filter pa -trace out.jsonl   # cycle-stamped event trace
//	pfsim -bench mcf -filter pa -metrics           # metrics registry snapshot
//	pfsim -bench mcf -pprof localhost:6060         # live net/http/pprof server
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime/metrics"
	"sort"
	"strings"

	"repro/internal/config"
	"repro/internal/filter"
	simmetrics "repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracefile"
	"repro/internal/workload"
)

func main() {
	var (
		bench    = flag.String("bench", "mcf", "benchmark name (see -list)")
		traceIn  = flag.String("tracein", "", "run from a PFTC trace file instead of a benchmark model")
		filterF  = flag.String("filter", "none", "pollution filter: "+strings.Join(filter.Sweepable(), "|"))
		entries  = flag.Int("entries", 4096, "history table entries (power of two)")
		n        = flag.Int64("n", 2_000_000, "measured instructions")
		warmup   = flag.Int64("warmup", 1_000_000, "warmup instructions (excluded from stats; 0 or negative = none)")
		seed     = flag.Uint64("seed", 1, "workload/replacement seed")
		l1size   = flag.Int("l1", 8192, "L1 size in bytes")
		l1lat    = flag.Int("l1lat", 0, "L1 latency in cycles (0 = derive: 8KB→1, 32KB→4)")
		ports    = flag.Int("ports", 3, "L1 universal ports (3/4/5 pair with 1/2/3-cycle latency at 8KB)")
		buffer   = flag.Bool("buffer", false, "use the 16-entry dedicated prefetch buffer (§5.5)")
		noNSP    = flag.Bool("no-nsp", false, "disable next-sequence prefetching")
		noSDP    = flag.Bool("no-sdp", false, "disable shadow-directory prefetching")
		noSW     = flag.Bool("no-sw", false, "disable software prefetches")
		stride   = flag.Bool("stride", false, "enable the stride (RPT) prefetcher extension")
		corr     = flag.Bool("corr", false, "enable the miss-correlation prefetcher extension")
		list     = flag.Bool("list", false, "list benchmarks and exit")
		jsonConf = flag.String("config", "", "load a full JSON machine config from this file")

		traceOut = flag.String("trace", "", "write a cycle-stamped JSONL event trace to this file")
		traceBuf = flag.Int("tracebuf", 1<<20, "event trace ring-buffer capacity (oldest events drop beyond this)")
		interval = flag.Uint64("interval", 100_000, "rollup interval in cycles for the -trace accuracy/coverage/pollution table (0 disables)")
		metricsF = flag.Bool("metrics", false, "print the simulation metrics registry snapshot (plus selected runtime/metrics)")
		pprofF   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the duration of the run")
	)
	flag.Parse()

	if *list {
		for _, s := range workload.All() {
			fmt.Printf("%-10s %-9s %-28s (paper: L1 %.4f, L2 %.4f)\n",
				s.Name, s.Suite, s.Input, s.PaperL1Miss, s.PaperL2Miss)
		}
		return
	}

	if *pprofF != "" {
		go func() {
			if err := http.ListenAndServe(*pprofF, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pfsim: pprof:", err)
			}
		}()
		fmt.Printf("pprof listening on http://%s/debug/pprof/\n", *pprofF)
	}

	cfg := config.Default()
	if *jsonConf != "" {
		data, err := os.ReadFile(*jsonConf)
		if err != nil {
			fatal(err)
		}
		cfg, err = config.Parse(data)
		if err != nil {
			fatal(err)
		}
	}
	cfg.L1.SizeBytes = *l1size
	cfg = cfg.WithL1Ports(*ports)
	if *l1lat > 0 {
		cfg.L1.LatencyCycles = *l1lat
	} else if *l1size >= 32*1024 {
		cfg.L1.LatencyCycles = 4
	}
	cfg.Filter.Kind = config.FilterKind(*filterF)
	cfg.Filter.TableEntries = *entries
	cfg.Buffer.Enable = *buffer
	cfg.Prefetch.EnableNSP = !*noNSP
	cfg.Prefetch.EnableSDP = !*noSDP
	cfg.Prefetch.EnableSoftware = !*noSW
	cfg.Prefetch.EnableStride = *stride
	cfg.Prefetch.EnableCorrelation = *corr
	cfg.Seed = *seed

	if *warmup == 0 {
		*warmup = -1 // sim.Options reads 0 as DefaultWarmup
	}
	opts := sim.Options{
		Benchmark:       *bench,
		Config:          cfg,
		MaxInstructions: *n,
		Warmup:          *warmup,
	}
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New(*traceBuf).WithInterval(*interval)
		opts.Trace = tracer
	}
	var reg *simmetrics.Registry
	if *metricsF {
		reg = simmetrics.New()
		opts.Metrics = reg
	}

	run, err := simulate(opts, *traceIn)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("benchmark        %s\n", run.Benchmark)
	fmt.Printf("filter           %s\n", run.Filter)
	fmt.Printf("instructions     %d\n", run.Instructions)
	fmt.Printf("cycles           %d\n", run.Cycles)
	fmt.Printf("IPC              %.4f\n", run.IPC())
	fmt.Printf("L1 miss rate     %.4f (%d/%d)\n", run.L1MissRate(), run.L1DemandMisses, run.L1DemandAccesses)
	fmt.Printf("L2 miss rate     %.4f (%d/%d)\n", run.L2MissRate(), run.L2DemandMisses, run.L2DemandAccesses)
	fmt.Printf("branch accuracy  %.4f\n", 1-float64(run.BranchMispredictions)/max1(run.BranchPredictions))
	fmt.Println()
	fmt.Printf("prefetches issued   %d\n", run.Prefetches.Issued)
	fmt.Printf("  good              %d (%d still resident)\n", run.Prefetches.Good, run.Prefetches.ResidentGood)
	fmt.Printf("  bad               %d (%d still resident)\n", run.Prefetches.Bad, run.Prefetches.ResidentBad)
	fmt.Printf("  bad/good ratio    %.3f\n", run.Prefetches.BadGoodRatio())
	fmt.Printf("filtered            %d\n", run.Prefetches.Filtered)
	fmt.Printf("squashed (dup)      %d\n", run.Prefetches.Squashed)
	fmt.Printf("queue overflow      %d\n", run.Prefetches.Overflow)
	fmt.Println()
	fmt.Printf("L1 traffic: demand %d, prefetch %d (ratio %.3f)\n",
		run.Traffic.DemandAccesses, run.Traffic.PrefetchAccesses, run.Traffic.PrefetchRatio())
	fmt.Printf("L2 accesses %d (prefetch %d), memory %d (prefetch %d)\n",
		run.Traffic.L2Accesses, run.Traffic.PrefetchL2, run.Traffic.MemAccesses, run.Traffic.PrefetchMem)
	if len(run.BySource) > 0 {
		keys := make([]string, 0, len(run.BySource))
		for k := range run.BySource {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("prefetches by source:")
		for _, k := range keys {
			fmt.Printf(" %s=%d", k, run.BySource[k])
		}
		fmt.Println()
	}

	if tracer != nil {
		writeTrace(tracer, *traceOut)
	}
	if reg != nil {
		fmt.Println()
		fmt.Println("--- metrics snapshot ---")
		if _, err := reg.Snapshot().WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
		dumpRuntimeMetrics()
	}
}

// simulate runs opts, reading the records from the PFTC file traceIn
// when it is set. A decode error that ends the trace early fails the run
// rather than reporting the records before the fault.
func simulate(opts sim.Options, traceIn string) (stats.Run, error) {
	if traceIn == "" {
		return sim.Run(opts)
	}
	f, err := os.Open(traceIn)
	if err != nil {
		return stats.Run{}, err
	}
	defer f.Close() //pflint:allow errcheck read-only trace input; a close error cannot lose data
	r, err := tracefile.NewReader(f, tracefile.ReaderOptions{})
	if err != nil {
		return stats.Run{}, fmt.Errorf("%s: %w", traceIn, err)
	}
	opts.Source = r
	opts.Benchmark = traceIn
	run, err := sim.Run(opts)
	if err != nil {
		return stats.Run{}, err
	}
	if err := r.Err(); err != nil {
		return stats.Run{}, fmt.Errorf("%s: %w", traceIn, err)
	}
	return run, nil
}

// writeTrace exports the JSONL event file and prints the interval
// rollup table (accuracy / coverage / pollution per interval).
func writeTrace(tracer *trace.Tracer, path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := tracer.WriteJSONL(f); err != nil {
		_ = f.Close() // the write error takes precedence
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Println()
	fmt.Printf("trace: %d events emitted, %d buffered to %s (%d overwrote the ring)\n",
		tracer.Total(), tracer.Total()-tracer.Dropped(), path, tracer.Dropped())
	rollups := tracer.Rollups()
	if len(rollups) == 0 {
		return
	}
	fmt.Printf("%-10s %8s %8s %8s %8s %9s %9s %10s\n",
		"interval", "issued", "filtered", "fills", "misses", "accuracy", "coverage", "pollution")
	for _, r := range rollups {
		fmt.Printf("%-10d %8d %8d %8d %8d %9.3f %9.3f %10.3f\n",
			r.Index, r.Issued(), r.Filtered(), r.Counts[trace.KindPrefetchFill],
			r.DemandMisses(), r.Accuracy(), r.Coverage(), r.PollutionRate())
	}
}

// dumpRuntimeMetrics prints a useful subset of runtime/metrics — the
// Go-runtime counterpart to the simulation registry, for profiling the
// simulator itself.
func dumpRuntimeMetrics() {
	names := []string{
		"/gc/heap/allocs:bytes",
		"/gc/heap/allocs:objects",
		"/gc/cycles/total:gc-cycles",
		"/memory/classes/heap/objects:bytes",
		"/memory/classes/total:bytes",
		"/sched/goroutines:goroutines",
	}
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	fmt.Println()
	fmt.Println("--- runtime/metrics ---")
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			fmt.Printf("%-40s %d\n", s.Name, s.Value.Uint64())
		case metrics.KindFloat64:
			fmt.Printf("%-40s %g\n", s.Name, s.Value.Float64())
		}
	}
}

func max1(v uint64) float64 {
	if v == 0 {
		return 1
	}
	return float64(v)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pfsim:", err)
	os.Exit(1)
}
