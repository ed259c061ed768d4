// Command pfexperiments regenerates the paper's tables and figures.
//
// Usage:
//
//	pfexperiments -list              # show available experiments
//	pfexperiments -exp fig6          # regenerate one figure
//	pfexperiments -all               # regenerate everything (results_full.txt)
//	pfexperiments -all -jobs 8       # pre-warm on 8 work-stealing workers
//	pfexperiments -all -deadline 5m  # abandon queued sims past the deadline
//	pfexperiments -exp fig12 -csv    # CSV instead of aligned text
//	pfexperiments -all -n 5000000    # longer runs for tighter statistics
//	pfexperiments -filters all       # head-to-head filter-backend comparison
//	pfexperiments -filters pa,perceptron,bloom -bench mcf
//	pfexperiments -generators all -filters all   # full (generator x filter) cross-product
//	pfexperiments -generators berti,ghb -filters pa -bench stream
//	pfexperiments -traces corpus.json            # trace corpus x filter zoo
//	pfexperiments -traces corpus.json -filters pa,perceptron
//	pfexperiments -iprefetch all -filters all    # I-side (iprefetcher x filter) cross-product
//	pfexperiments -iprefetch mana -filters pa -bench mcf
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/tracefile"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment ID ("+strings.Join(experiments.IDs(), ", ")+")")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list experiments and exit")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned text")
		md       = flag.Bool("md", false, "emit GitHub-flavored markdown")
		n        = flag.Int64("n", 2_000_000, "measured instructions per run")
		warmup   = flag.Int64("warmup", 1_000_000, "warmup instructions per run (0 or negative = none)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		bench    = flag.String("bench", "", "comma-separated benchmark subset (default: all ten)")
		deadline = flag.Duration("deadline", 0, "wall-clock budget for the simulation sweep (0 = none); queued sims past it are abandoned")
		met      = flag.Bool("metrics", false, "print harness telemetry (cache hits/misses, scheduler steals, per-benchmark sim wall time) after the run")
		filters  = flag.String("filters", "", "comma-separated filter backends to compare head to head, or \"all\" for every sweepable backend")
		gens     = flag.String("generators", "", "comma-separated prefetch generators to cross with -filters (or \"all\"); runs the (generator x filter) comparison")
		iprefs   = flag.String("iprefetch", "", "comma-separated instruction prefetchers to cross with -filters (or \"all\"); enables the front end and runs the (iprefetcher x filter) comparison")
		traces   = flag.String("traces", "", "trace-corpus manifest (docs/TRACES.md); registers each trace as benchmark trace:<name>, points the benchmark set at the corpus unless -bench overrides, and without another mode flag runs the corpus x filter comparison")
		traceVer = flag.Bool("verify-traces", false, "fully scan every corpus trace before running (per-chunk CRCs, stream fingerprint vs manifest)")
	)
	var jobs int
	flag.IntVar(&jobs, "jobs", 0, "parallel simulation workers (0 = GOMAXPROCS, 1 = serial)")
	flag.IntVar(&jobs, "j", 0, "shorthand for -jobs")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	params := experiments.Params{Instructions: *n, Warmup: *warmup, Seed: *seed}
	var corpus []string
	if *traces != "" {
		names, err := tracefile.RegisterCorpus(config.TraceConfig{Manifest: *traces, Verify: *traceVer})
		if err != nil {
			fmt.Fprintf(os.Stderr, "pfexperiments: trace corpus: %v\n", err)
			os.Exit(1)
		}
		corpus = names
		params.Benchmarks = names
	}
	if *bench != "" {
		params.Benchmarks = strings.Split(*bench, ",")
	}
	if *met {
		params.Metrics = metrics.New()
	}

	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	render := func(table *experiments.Table) {
		var werr error
		switch {
		case *csv:
			werr = table.WriteCSV(os.Stdout)
		case *md:
			werr = table.WriteMarkdown(os.Stdout)
		default:
			werr = table.WriteText(os.Stdout)
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "pfexperiments:", werr)
			os.Exit(1)
		}
	}
	kinds := func(s string) []string { // "" and "all" select every sweepable kind
		if s == "" {
			return nil
		}
		return strings.Split(s, ",")
	}

	// The comparison modes share one sweep: -iprefetch or -generators
	// picks the third axis, -filters the filters, -traces the corpus.
	if *iprefs != "" || *gens != "" || *filters != "" || *traces != "" && *exp == "" && !*all {
		axis, values, err := experiments.SweepAxis(kinds(*gens), kinds(*iprefs))
		if err != nil {
			fmt.Fprintf(os.Stderr, "pfexperiments: %v\n", err)
			os.Exit(1)
		}
		title := axis.TableTitle()
		if axis == nil && *filters == "" {
			// -traces alone: the manifest summary above the (trace ×
			// filter) comparison, over the corpus even when -bench is set.
			m, err := tracefile.LoadManifest(*traces)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pfexperiments: %v\n", err)
				os.Exit(1)
			}
			render(experiments.TraceCorpusTable(m))
			fmt.Println()
			title = experiments.TraceTitle
			params.Benchmarks = corpus
		}
		cells, err := params.Sweep(ctx, axis, values, kinds(*filters), jobs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pfexperiments: sweep: %v\n", err)
			os.Exit(1)
		}
		render(experiments.ComparisonTable(title, cells))
		if *met {
			printTelemetry(&params)
		}
		return
	}

	var targets []experiments.Experiment
	switch {
	case *all:
		targets = experiments.All()
	case *exp != "":
		e, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "pfexperiments: unknown experiment %q; try -list\n", *exp)
			os.Exit(1)
		}
		targets = []experiments.Experiment{e}
	default:
		fmt.Fprintln(os.Stderr, "pfexperiments: need -exp <id> or -all; try -list")
		os.Exit(1)
	}

	// Pre-warm the shared simulation matrix in parallel when running more
	// than one experiment; each experiment then reads memoized results.
	if len(targets) > 1 && jobs != 1 {
		start := time.Now()
		if err := params.PrewarmCtx(ctx, jobs); err != nil {
			fmt.Fprintf(os.Stderr, "pfexperiments: prewarm: %v\n", err)
			os.Exit(1)
		}
		if !*csv {
			fmt.Printf("pre-warmed %d simulations in %.1fs\n\n", params.CachedRuns(), time.Since(start).Seconds())
		}
	}

	for _, e := range targets {
		start := time.Now()
		table, err := e.Run(&params)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pfexperiments: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if !*csv && !*md {
			fmt.Printf("=== %s: %s (%.1fs) ===\n", e.ID, e.Title, time.Since(start).Seconds())
		}
		render(table)
	}

	if *met {
		printTelemetry(&params)
	}
}

// printTelemetry dumps the harness metrics snapshot when one is attached.
func printTelemetry(params *experiments.Params) {
	if params.Metrics == nil {
		return
	}
	fmt.Println()
	fmt.Println("--- harness telemetry ---")
	if _, err := params.Metrics.Snapshot().WriteTo(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pfexperiments:", err)
		os.Exit(1)
	}
}
