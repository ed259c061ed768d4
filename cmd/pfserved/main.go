// Command pfserved serves simulations over HTTP: the experiment harness
// as a daemon, batched on the longest-first scheduler and cached behind
// one bounded single-flight memo, then the -cas-dir store. See
// docs/SERVING.md for the API and docs/FABRIC.md for multi-node operation.
//
// Usage:
//
//	pfserved                          # listen on :8077
//	pfserved -addr :9000 -workers 8   # custom port, 8 sim workers
//	pfserved -queue 128 -max-concurrent 4
//	pfserved -trace-manifest corpus.json   # serve trace benchmarks too
//
//	# Distributed sweep fabric (docs/FABRIC.md): one coordinator deals
//	# cells to worker daemons and persists results in a shared CAS.
//	pfserved -role worker -addr :8078 -cas-dir /var/pfcas
//	pfserved -role worker -addr :8079 -cas-dir /var/pfcas
//	pfserved -role coordinator -cas-dir /var/pfcas \
//	    -workers http://localhost:8078,http://localhost:8079
//
// Endpoints: POST /v1/run, POST /v1/sweep (NDJSON when the request sets
// "stream"), POST+GET /v1/cell, GET /metrics, GET /healthz.
// SIGTERM/SIGINT drains gracefully: stop accepting, finish in-flight,
// then exit (bounded by -drain-timeout).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/tracefile"
)

func main() {
	var (
		addr         = flag.String("addr", ":8077", "listen address")
		role         = flag.String("role", "standalone", `"standalone" (serve and simulate locally), "worker" (same, meant to sit behind a coordinator), or "coordinator" (deal sweep cells to the -workers fleet instead of simulating)`)
		workers      = flag.String("workers", "", "standalone/worker roles: scheduler pool size per executing batch (integer; empty or 0 = GOMAXPROCS). coordinator role: comma-separated worker base URLs, e.g. http://host:8078,http://host:8079")
		casDir       = flag.String("cas-dir", "", "content-addressed result store directory; enables persistent result caching and GET /v1/cell lookups (share one directory across co-located daemons)")
		lease        = flag.Duration("lease", 2*time.Minute, "coordinator role: per-dispatch lease; a worker that has not answered within it forfeits the cell and it is re-dealt")
		perWorker    = flag.Int("per-worker", 2, "coordinator role: concurrent in-flight cells per worker (match the workers' -max-concurrent)")
		queue        = flag.Int("queue", 64, "admission queue depth; beyond it requests get 429")
		maxConc      = flag.Int("max-concurrent", 2, "concurrently executing request batches")
		maxSweep     = flag.Int("max-sweep", 4096, "largest accepted sweep matrix (deduplicated jobs)")
		maxInstr     = flag.Int64("max-instructions", 50_000_000, "per-request instruction budget cap")
		defInstr     = flag.Int64("n", 2_000_000, "default measured instructions per run")
		defWarmup    = flag.Int64("warmup", 1_000_000, "default warmup instructions per run when a request omits warmup (0: none)")
		deadline     = flag.Duration("deadline", 2*time.Minute, "default per-request deadline")
		maxDeadline  = flag.Duration("max-deadline", 10*time.Minute, "largest per-request deadline a client may ask for")
		retryAfter   = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
		traceMan     = flag.String("trace-manifest", "", "trace-corpus manifest (docs/TRACES.md); registers each trace as benchmark trace:<name> and enables the sweep \"traces\" axis")
		traceVerify  = flag.Bool("trace-verify", false, "fully scan every corpus trace at startup (per-chunk CRCs, stream fingerprint vs manifest)")
	)
	flag.Parse()
	if *defWarmup < 0 {
		fatalf("-warmup must not be negative, got %d", *defWarmup)
	}

	if *traceMan != "" {
		names, err := tracefile.RegisterCorpus(config.TraceConfig{Manifest: *traceMan, Verify: *traceVerify})
		if err != nil {
			fatalf("trace corpus: %v", err)
		}
		log.Printf("pfserved: trace corpus %s: registered %d benchmark(s) %v", *traceMan, len(names), names)
	}

	// One registry for everything — server, harness, CAS, and coordinator
	// telemetry all land in /metrics.
	m := metrics.New()
	cfg := server.Config{
		QueueDepth:          *queue,
		MaxConcurrent:       *maxConc,
		MaxSweepJobs:        *maxSweep,
		MaxInstructions:     *maxInstr,
		DefaultInstructions: *defInstr,
		DefaultWarmup:       defWarmup,
		DefaultDeadline:     *deadline,
		MaxDeadline:         *maxDeadline,
		RetryAfter:          *retryAfter,
		Metrics:             m,
	}

	if *casDir != "" {
		cas, err := fabric.OpenCAS(*casDir, m)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.CAS = cas
		log.Printf("pfserved: content-addressed store at %s", cas.Dir())
	}

	switch *role {
	case "standalone", "worker":
		// -workers is the local scheduler pool size in these roles.
		if *workers != "" {
			n, err := strconv.Atoi(*workers)
			if err != nil {
				fatalf("-role %s: -workers must be an integer pool size, got %q", *role, *workers)
			}
			cfg.Workers = n
		}
	case "coordinator":
		// -workers is the fleet: comma-separated worker base URLs.
		var urls []string
		for _, u := range strings.Split(*workers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			fatalf("-role coordinator requires -workers with at least one worker URL (http://host:port,...)")
		}
		coord, err := fabric.New(fabric.Options{
			Workers:   urls,
			CAS:       cfg.CAS,
			Lease:     *lease,
			PerWorker: *perWorker,
			Metrics:   m,
		})
		if err != nil {
			fatalf("%v", err)
		}
		cfg.Coordinator = coord
		log.Printf("pfserved: coordinating %d worker(s): %v", len(urls), urls)
	default:
		fatalf("unknown -role %q (standalone, worker, or coordinator)", *role)
	}

	srv := server.New(cfg)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		sig := <-sigc
		log.Printf("pfserved: %v: draining (timeout %s)", sig, *drainTimeout)
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Shutdown stops the listeners and waits for in-flight handlers.
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("pfserved: shutdown: %v", err)
		}
		if err := srv.Drain(ctx); err != nil {
			log.Printf("pfserved: %v", err)
		}
	}()

	log.Printf("pfserved: %s listening on %s (queue %d, %d concurrent batches)", *role, *addr, *queue, *maxConc)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatalf("%v", err)
	}
	<-shutdownDone
	log.Printf("pfserved: drained, exiting")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pfserved: "+format+"\n", args...)
	os.Exit(1)
}
