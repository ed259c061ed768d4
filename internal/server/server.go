// Package server is the simulation-as-a-service daemon behind cmd/pfserved.
//
// It turns the experiment harness into an HTTP service: POST /v1/run
// executes one (benchmark, config, seed) simulation, POST /v1/sweep a
// whole matrix, both on the internal/sched work-stealing pool and behind
// the daemon's one memory cache (internal/fabric's cell loop) — so
// concurrent identical requests perform one simulation, and the second
// caller's share counts in "fabric.cas.hits" on /metrics.
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
	// MaxInstructions caps the per-request instruction budget, warmup
	// included (400 when exceeded). Default 50M.
	MaxInstructions int64
	// DefaultInstructions / DefaultWarmup apply when a request omits
	// them. Defaults: 2M / 1M (the harness defaults). DefaultWarmup is a
	// pointer, like a request's warmup, so a daemon can make "no warmup"
	// (a pointer to 0) its default; nil means 1M.
	DefaultInstructions int64
	DefaultWarmup       *int64
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
	// it backs GET/fill on /v1/cell, and every request asks it after the
	// daemon's memory and before computing a cell, and fills it after, so
	// results survive restarts.
	CAS *fabric.CAS
	// Coordinator, when non-nil, turns this instance into a sweep
	// coordinator: /v1/run and /v1/sweep execute by dealing cells to the
	// coordinator's remote workers (its memory and the CAS first) instead
	// of simulating locally.
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
	if c.DefaultWarmup == nil {
		w := int64(1_000_000)
		c.DefaultWarmup = &w
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

	// memo is a standalone or worker daemon's memory (a coordinator's is
	// its Coordinator's).
	memo *sched.Memo[stats.Run]
	// runSim executes one simulation; tests substitute a stub. The
	// default is the harness's uncached simulation step.
	runSim func(ctx context.Context, p *experiments.Params, bench string, cfg config.Config) (stats.Run, error)
}

// New builds a Server from cfg (zero value accepted).
func New(cfg Config) *Server {
	s := &Server{
		cfg: cfg.withDefaults(),
		mux: http.NewServeMux(),
		runSim: func(ctx context.Context, p *experiments.Params, bench string, cfg config.Config) (stats.Run, error) {
			return p.Simulate(ctx, bench, cfg)
		},
	}
	if s.cfg.Coordinator == nil {
		s.memo = fabric.NewMemo()
	}
	s.slots = make(chan struct{}, s.cfg.QueueDepth)
	s.exec = make(chan struct{}, s.cfg.MaxConcurrent)
	s.routes()
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain flips the server into draining mode: /healthz and every
// /v1/* endpoint answer 503 from now on; in-flight requests continue.
func (s *Server) BeginDrain() { s.draining.Store(true) }

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
	w := *s.cfg.DefaultWarmup
	if warmup != nil {
		w = *warmup
	}
	return experiments.Params{
		Instructions: instructions,
		Warmup:       w,
		Seed:         seed,
		Metrics:      s.cfg.Metrics,
	}
}

// checkBudget is the budget gate /v1/run, /v1/sweep and /v1/cell share:
// nothing stops a simulation once it has started, so a request may not
// ask for a negative warmup or for more than maxInstructions
// instructions, warmup included.
func checkBudget(p *experiments.Params, maxInstructions int64) error {
	switch {
	case p.Warmup < 0:
		return fmt.Errorf("warmup %d is negative", p.Warmup)
	case p.Instructions > maxInstructions || p.Warmup > maxInstructions-p.Instructions:
		return fmt.Errorf("instructions %d + warmup %d exceeds the per-request cap %d", p.Instructions, p.Warmup, maxInstructions)
	}
	return nil
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
// execution unit every serving path works in.
type sweepCell struct {
	experiments.Cell
	key string
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

// executeCells runs the deduplicated cells through the fabric cell
// Loop and returns one result per key. It waits, deadline-aware, for an
// execution token so at most MaxConcurrent batches run at once. emit,
// when non-nil, is called once per cell as its result lands (memory hits
// first, then completion order, serialized) — the streaming hook. The
// role picks the Loop's compute step: with a Coordinator configured a
// miss is dealt to the remote worker fleet, otherwise it is simulated on
// the local pool.
func (s *Server) executeCells(ctx context.Context, p *experiments.Params, cells []sweepCell, emit func(sweepCell, fabric.Result)) (map[string]fabric.Result, error) {
	select {
	case s.exec <- struct{}{}:
		defer func() { <-s.exec }()
	case <-ctx.Done():
		return nil, fmt.Errorf("server: queued past deadline: %w", ctx.Err())
	}

	byKey := make(map[string]sweepCell, len(cells))
	fcells := make([]fabric.Cell, len(cells))
	for i, c := range cells {
		byKey[c.key] = c
		fcells[i] = fabric.Cell{Key: c.key, Bench: c.Bench, Config: c.Config}
	}
	outcomes := make(map[string]fabric.Result, len(cells))
	record := func(r fabric.Result) { // the Loop serializes its emits
		outcomes[r.Cell.Key] = r
		if emit != nil {
			emit(byKey[r.Cell.Key], r)
		}
	}

	var err error
	if c := s.cfg.Coordinator; c != nil {
		fp := fabric.Params{Instructions: p.Instructions, Warmup: p.Warmup, Seed: p.Seed}
		err = c.Run(ctx, fp, fcells, p.CostModel(), record)
	} else {
		loop := fabric.Loop{Memo: s.memo, CAS: s.cfg.CAS, Slots: s.cfg.Workers, Metrics: s.cfg.Metrics,
			Compute: func(ctx context.Context, cell *fabric.Cell) fabric.Result {
				start := time.Now()
				run, err := s.runSim(ctx, p, cell.Bench, cell.Config)
				return fabric.Result{Cell: *cell, Run: run, Err: err, Wall: time.Since(start)}
			}}
		_, err = loop.Run(ctx, fcells, p.CostModel(), record)
	}
	return outcomes, err
}
