// Package server is the simulation-as-a-service daemon behind cmd/pfserved.
//
// It turns the experiment harness into an HTTP service: POST /v1/run
// executes one (benchmark, config, seed) simulation, POST /v1/sweep a
// whole matrix, both on the internal/sched work-stealing pool and behind
// the process-wide single-flight memo — so concurrent identical requests
// perform one simulation and the second caller shares the result (the
// "experiments.cache.shared" counter in /metrics counts exactly that).
//
// Production hardening is the point of the package:
//
//   - Bounded admission: at most QueueDepth requests may be admitted at
//     once (queued or executing). Beyond that the server answers 429
//     with a Retry-After hint instead of buffering unbounded work.
//   - Bounded execution: at most MaxConcurrent admitted requests run
//     their scheduler batch at a time; the rest wait, deadline-aware,
//     in the admission queue.
//   - Deadlines: every request gets a context deadline (its own
//     deadline_ms, capped by MaxDeadline; DefaultDeadline otherwise)
//     that propagates through sched.Run into the simulation jobs.
//     Queued work past its deadline returns 504 without ever starting.
//   - Graceful drain: BeginDrain stops admitting new simulation
//     requests (503, and /healthz flips to 503 so load balancers eject
//     the instance); Drain waits until in-flight requests complete.
//     cmd/pfserved wires this to SIGTERM/SIGINT.
//   - Observability: /metrics serves the shared internal/metrics
//     registry in Prometheus text exposition format.
package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Config tunes the daemon. The zero value is usable: every field has a
// production-reasonable default (see withDefaults).
type Config struct {
	// Workers is the scheduler pool size per executing batch
	// (<= 0 selects GOMAXPROCS).
	Workers int
	// QueueDepth bounds admitted-but-unfinished requests; a full queue
	// answers 429 + Retry-After. Default 64.
	QueueDepth int
	// MaxConcurrent bounds simultaneously executing scheduler batches;
	// admitted requests beyond it wait (deadline-aware). Default 2.
	MaxConcurrent int
	// MaxSweepJobs rejects sweeps whose expanded matrix exceeds it
	// (413). Default 4096.
	MaxSweepJobs int
	// MaxInstructions caps the per-request instruction budget (400 when
	// exceeded). Default 50M.
	MaxInstructions int64
	// DefaultInstructions / DefaultWarmup apply when a request omits
	// them. Defaults: 2M / 1M (the harness defaults).
	DefaultInstructions int64
	DefaultWarmup       int64
	// DefaultDeadline applies when a request sends no deadline_ms;
	// MaxDeadline caps what a request may ask for. Defaults: 2m / 10m.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// RetryAfter is the hint returned with 429 responses. Default 1s.
	RetryAfter time.Duration
	// Metrics receives service + harness telemetry and backs /metrics.
	// Nil allocates a fresh registry.
	Metrics *metrics.Registry
	// CAS, when non-nil, is the on-disk content-addressed result store:
	// it backs GET/fill on /v1/cell and becomes the persistent level
	// behind the in-process memo (experiments.RunStore), so results
	// survive restarts and repeated sweeps answer without simulating.
	CAS *fabric.CAS
	// Coordinator, when non-nil, turns this instance into a sweep
	// coordinator: /v1/run and /v1/sweep execute by dealing cells to the
	// coordinator's remote workers (CAS-first) instead of simulating
	// locally.
	Coordinator *fabric.Coordinator
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.MaxSweepJobs <= 0 {
		c.MaxSweepJobs = 4096
	}
	if c.MaxInstructions <= 0 {
		c.MaxInstructions = 50_000_000
	}
	if c.DefaultInstructions <= 0 {
		c.DefaultInstructions = 2_000_000
	}
	if c.DefaultWarmup <= 0 {
		c.DefaultWarmup = 1_000_000
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Minute
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 10 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Metrics == nil {
		c.Metrics = metrics.New()
	}
	return c
}

// Server is the HTTP simulation service. Create with New; the zero
// value is not usable.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	slots    chan struct{} // admission queue tokens
	exec     chan struct{} // concurrent-batch tokens
	draining atomic.Bool
	inflight sync.WaitGroup

	// runSim executes one simulation; tests substitute a stub. The
	// default routes through the harness memo (Params.RunSim).
	runSim func(ctx context.Context, p *experiments.Params, bench string, cfg config.Config) (stats.Run, error)
}

// New builds a Server from cfg (zero value accepted).
func New(cfg Config) *Server {
	s := &Server{
		cfg: cfg.withDefaults(),
		mux: http.NewServeMux(),
		runSim: func(ctx context.Context, p *experiments.Params, bench string, cfg config.Config) (stats.Run, error) {
			return p.RunSim(ctx, bench, cfg)
		},
	}
	s.slots = make(chan struct{}, s.cfg.QueueDepth)
	s.exec = make(chan struct{}, s.cfg.MaxConcurrent)
	s.routes()
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the registry backing /metrics.
func (s *Server) Metrics() *metrics.Registry { return s.cfg.Metrics }

// BeginDrain flips the server into draining mode: /healthz and every
// /v1/* endpoint answer 503 from now on; in-flight requests continue.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain blocks until every in-flight request has completed or ctx
// expires.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	//pflint:allow ctxflow/goroutine the standard WaitGroup-to-channel bridge: exits as soon as the in-flight requests it waits on drain, which BeginDrain has already capped; ctx only bounds how long the caller waits
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// admit tries to take an admission slot without blocking. When the
// queue is full it answers 429 with Retry-After and returns false; the
// caller releases a slot it was given.
func (s *Server) admit(w http.ResponseWriter) bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
	}
	s.cfg.Metrics.Counter("server.rejected.backpressure").Inc()
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	s.writeError(w, http.StatusTooManyRequests, "admission queue full (%d requests in flight); retry later", cap(s.slots))
	return false
}

// rejectDraining answers 503 while the server drains and reports
// whether it did.
func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	s.cfg.Metrics.Counter("server.rejected.draining").Inc()
	s.writeError(w, http.StatusServiceUnavailable, "server is draining")
	return true
}

// releaseSlot returns an admission slot.
func (s *Server) releaseSlot() { <-s.slots }

// paramsFor builds the harness Params for one request, sharing the
// service registry so harness telemetry lands in /metrics.
func (s *Server) paramsFor(instructions int64, warmup *int64, seed uint64) experiments.Params {
	if instructions <= 0 {
		instructions = s.cfg.DefaultInstructions
	}
	w := s.cfg.DefaultWarmup
	if warmup != nil {
		w = *warmup
	}
	p := experiments.Params{
		Instructions: instructions,
		Warmup:       w,
		Seed:         seed,
		Metrics:      s.cfg.Metrics,
	}
	if s.cfg.CAS != nil {
		p.Store = s.cfg.CAS
	}
	return p
}

// deadlineFor resolves a request's effective deadline.
func (s *Server) deadlineFor(deadlineMS int64) time.Duration {
	d := s.cfg.DefaultDeadline
	if deadlineMS > 0 {
		d = time.Duration(deadlineMS) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

// sweepCell pairs one deduplicated cell with its cache key — the
// execution unit every serving path (local pool, fabric, streaming)
// works in.
type sweepCell struct {
	experiments.Cell
	key string
}

// cellOutcome is one cell's result, independent of where it ran.
type cellOutcome struct {
	run    *stats.Run
	err    error
	wallNS int64
	// source reports fabric provenance ("cas" or a worker URL); empty
	// for single-node execution.
	source string
}

// cellsFor deduplicates cells by cache key (first occurrence wins),
// preserving their order.
func cellsFor(p *experiments.Params, cells []experiments.Cell) []sweepCell {
	seen := make(map[string]bool, len(cells))
	out := make([]sweepCell, 0, len(cells))
	for _, c := range cells {
		key := p.CacheKey(c.Bench, c.Config)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, sweepCell{Cell: c, key: key})
	}
	return out
}

// executeCells runs the deduplicated cells and returns one outcome per
// key. It waits, deadline-aware, for an execution token so at most
// MaxConcurrent batches run at once. emit, when non-nil, is called once
// per cell as its result lands (completion order, serialized) — the
// streaming hook. With a Coordinator configured, cells are dealt to the
// remote worker fleet (CAS-first); otherwise they run on the local
// work-stealing pool.
func (s *Server) executeCells(ctx context.Context, p *experiments.Params, cells []sweepCell, emit func(sweepCell, cellOutcome)) (map[string]cellOutcome, error) {
	select {
	case s.exec <- struct{}{}:
		defer func() { <-s.exec }()
	case <-ctx.Done():
		return nil, fmt.Errorf("server: queued past deadline: %w", ctx.Err())
	}

	outcomes := make(map[string]cellOutcome, len(cells))
	var mu sync.Mutex
	record := func(c sweepCell, o cellOutcome) {
		mu.Lock()
		outcomes[c.key] = o
		if emit != nil {
			emit(c, o)
		}
		mu.Unlock()
	}

	if s.cfg.Coordinator != nil {
		byKey := make(map[string]sweepCell, len(cells))
		fcells := make([]fabric.Cell, len(cells))
		for i, c := range cells {
			byKey[c.key] = c
			fcells[i] = fabric.Cell{Key: c.key, Bench: c.Bench, Config: c.Config}
		}
		fp := fabric.Params{Instructions: p.Instructions, Warmup: p.Warmup, Seed: p.Seed}
		ctxErr := s.cfg.Coordinator.Run(ctx, fp, fcells, p.CostModel(), func(r fabric.Result) {
			o := cellOutcome{wallNS: r.Wall.Nanoseconds(), source: r.Source, err: r.Err}
			if r.Err == nil {
				run := r.Run
				o.run = &run
			}
			record(byKey[r.Cell.Key], o)
		})
		return outcomes, ctxErr
	}

	cost := p.CostModel()
	jobs := make([]sched.Job, 0, len(cells))
	for _, c := range cells {
		c := c
		jobs = append(jobs, sched.Job{
			Key:  c.key,
			Cost: cost(c.Bench),
			Run: func(ctx context.Context) (any, error) {
				start := time.Now()
				r, err := s.runSim(ctx, p, c.Bench, c.Config)
				o := cellOutcome{wallNS: time.Since(start).Nanoseconds(), err: err}
				if err == nil {
					o.run = &r
				}
				record(c, o)
				return nil, err
			},
		})
	}
	_, ctxErr := sched.Run(ctx, jobs, sched.Options{Workers: s.cfg.Workers, Metrics: s.cfg.Metrics})
	// Cells the cancellation sweep never started have no outcome yet.
	for _, c := range cells {
		mu.Lock()
		_, ok := outcomes[c.key]
		mu.Unlock()
		if !ok {
			err := ctxErr
			if err == nil {
				err = fmt.Errorf("server: cell never ran")
			}
			record(c, cellOutcome{err: err})
		}
	}
	return outcomes, ctxErr
}
