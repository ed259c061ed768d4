// Package fabric is the distributed sweep fabric: a coordinator that
// shards a sweep's cells across remote worker processes over HTTP,
// backed by an on-disk content-addressed store of completed results.
//
// Every pfserved role runs its batches through the same cell Loop
// (loop.go); the coordinator's compute step is an HTTP dispatch where a
// local daemon's is a simulation:
//
//   - Cells are keyed by experiments.CacheKey — the same fully-qualified
//     key every daemon's memory uses — so a cell computed anywhere is a
//     cell computed everywhere.
//   - The coordinator's memory, then the CAS, answer hot cells without
//     simulating at all; only misses are dealt.
//   - Each miss is one sched job on sched's one queue. Only simulating
//     daemons record the wall times sched costs jobs by, so a coordinator
//     starts them in key order, each on a free slot of the worker fleet
//     (PerWorker per worker, its number of concurrent in-flight cells).
//   - Every dispatch carries a lease (a per-request deadline). A worker
//     that dies, or that misses its lease, forfeits the cell: it is
//     retried on another live worker, and a worker that fails repeatedly
//     is marked dead and dealt nothing further. The sweep completes as long
//     as one worker survives.
//   - Completed cells are written to the CAS (atomic rename, immutable
//     entries) and streamed to the caller as they land, in completion
//     order. Determinism is unaffected: cells are independent and keyed,
//     so the result SET is byte-identical to a single-node run no matter
//     how the race between workers plays out — the pinned-fingerprint
//     machinery enforces exactly that.
package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Cell is one simulation of a sweep: a fully-qualified cache key plus
// the (benchmark, config) pair a worker needs to recompute it.
type Cell struct {
	// Key is the experiments.CacheKey of the cell — its identity in the
	// CAS and the deduplication domain.
	Key string
	// Bench and Config describe the simulation.
	Bench  string
	Config config.Config
}

// Params are the run parameters shared by every cell of a sweep.
type Params struct {
	Instructions int64
	Warmup       int64
	Seed         uint64
}

// Result is one completed (or failed) cell.
type Result struct {
	Cell Cell
	Run  stats.Run
	Err  error
	// Wall is the dispatch wall time (zero for CAS hits).
	Wall time.Duration
	// Source names where the result came from: "cas", or the worker URL
	// that computed it.
	Source string
	// Attempts counts dispatches (1 = first try; >1 means re-dealt).
	Attempts int
}

// Options configure a Coordinator.
type Options struct {
	// Workers is the list of worker base URLs (e.g. "http://host:8077").
	// At least one is required.
	Workers []string
	// CAS, when non-nil, is probed after the coordinator's memory and
	// before dealing, and filled after every completed cell.
	CAS *CAS
	// Lease bounds one dispatch: a worker that has not answered within
	// it forfeits the cell. Default 2m.
	Lease time.Duration
	// PerWorker is the number of concurrent in-flight cells per worker
	// (match it to the worker's -max-concurrent). Default 2.
	PerWorker int
	// MaxAttempts bounds how many times one cell may be dealt before it
	// is reported failed. Default 3.
	MaxAttempts int
	// DeadAfter marks a worker dead after this many consecutive
	// transport failures. Default 2.
	DeadAfter int
	// Client is the HTTP client for dispatches; nil uses a dedicated
	// client with sane connection pooling.
	Client *http.Client
	// Metrics receives fabric telemetry ("fabric.cells.*",
	// "fabric.cas.*", "fabric.workers.dead"). Nil-safe.
	Metrics *metrics.Registry
}

// Coordinator deals sweep cells to workers. Create with New; safe for
// concurrent use (each Run call has its own fleet of slots, and all
// share the coordinator's memory).
type Coordinator struct {
	opts Options
	memo *sched.Memo[stats.Run]
}

// New validates opts and builds a Coordinator.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("fabric: at least one worker URL is required")
	}
	for _, w := range opts.Workers {
		if !strings.HasPrefix(w, "http://") && !strings.HasPrefix(w, "https://") {
			return nil, fmt.Errorf("fabric: worker %q: URL must start with http:// or https://", w)
		}
	}
	if opts.Lease <= 0 {
		opts.Lease = 2 * time.Minute
	}
	if opts.PerWorker <= 0 {
		opts.PerWorker = 2
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.DeadAfter <= 0 {
		opts.DeadAfter = 2
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: opts.PerWorker,
		}}
	}
	return &Coordinator{opts: opts, memo: NewMemo()}, nil
}

// fleet is one Run's view of the workers: each worker's free dispatch
// slots (PerWorker at the start) and the strikes that mark it dead. The
// lock is touched a few times per cell, never in a hot loop.
type fleet struct {
	mu      sync.Mutex
	free    []int   // free slots per worker
	strikes []int   // consecutive retryable failures per worker
	struck  []*Cell // the cell behind each worker's last strike
	dead    []bool
	alive   int
	// changed is closed, and replaced, whenever a slot frees or a worker
	// dies, waking every take that waits for one.
	changed chan struct{}
}

func (c *Coordinator) newFleet() *fleet {
	n := len(c.opts.Workers)
	f := &fleet{
		free:    make([]int, n),
		strikes: make([]int, n),
		struck:  make([]*Cell, n),
		dead:    make([]bool, n),
		alive:   n,
		changed: make(chan struct{}),
	}
	for w := range f.free {
		f.free[w] = c.opts.PerWorker
	}
	return f
}

// take waits for a free slot of a live worker and returns its index,
// failing once no worker is left.
// A retry passes the worker that just failed the cell as avoid and gets
// the first free slot after it, or avoid's own only when no other
// worker is alive, so one bad cell spreads its strikes instead of
// striking a healthy worker dead. A first attempt (avoid -1) takes the
// free worker with the most strikes: a fresh cell soon clears a strike
// that a bad cell left, and the slots of the worker a retry waits for
// stay free for it.
func (f *fleet) take(ctx context.Context, avoid int) (int, error) {
	for ctx.Err() == nil {
		f.mu.Lock()
		if f.alive == 0 {
			f.mu.Unlock()
			return -1, errors.New("fabric: every worker is dead")
		}
		best := -1
		for k := 1; k <= len(f.free); k++ {
			w := (avoid + k) % len(f.free)
			if f.free[w] == 0 || f.dead[w] || w == avoid && f.alive > 1 {
				continue
			}
			if best < 0 || avoid < 0 && f.strikes[w] > f.strikes[best] {
				best = w
			}
		}
		if best >= 0 {
			f.free[best]--
			f.mu.Unlock()
			return best, nil
		}
		changed := f.changed
		f.mu.Unlock()
		select {
		case <-changed:
		case <-ctx.Done():
		}
	}
	return -1, ctx.Err()
}

// put returns worker w's slot after a dispatch of cell. A success (ok)
// clears w's strikes; strike counts one against w unless cell was also
// behind w's last strike, so a bad cell that comes back to w cannot
// kill it alone. put reports whether this call marked w dead.
func (f *fleet) put(w int, cell *Cell, ok, strike bool, deadAfter int) (died bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.free[w]++
	if ok {
		f.strikes[w], f.struck[w] = 0, nil
	} else if strike && f.struck[w] != cell {
		f.strikes[w]++
		f.struck[w] = cell
	}
	if f.strikes[w] >= deadAfter && !f.dead[w] {
		f.dead[w] = true
		f.alive--
		died = true
	}
	close(f.changed)
	f.changed = make(chan struct{})
	return died
}

// Run executes cells across the worker fleet and calls emit once per
// cell as results land (memory hits first, then the rest in completion
// order). emit calls are serialized. It is the cell Loop with a dispatch
// as its compute step: cells sharing a key are dispatched once, the
// memory misses run as sched jobs in cost order (sched.ConstCost(1)
// starts them in key order), and the worker fleet offers PerWorker slots
// each. Run returns ctx.Err() when cancelled; per-cell failures are
// reported through emit, not the return value.
func (c *Coordinator) Run(ctx context.Context, p Params, cells []Cell, cost sched.CostModel, emit func(Result)) error {
	m := c.opts.Metrics
	f := c.newFleet()
	loop := Loop{
		Memo:    c.memo,
		CAS:     c.opts.CAS,
		Slots:   len(c.opts.Workers) * c.opts.PerWorker,
		Metrics: m,
		Compute: func(ctx context.Context, cell *Cell) Result {
			m.Counter("fabric.cells.dealt").Inc()
			return c.runCell(ctx, f, p, cell)
		},
	}
	unstarted, err := loop.Run(ctx, cells, cost, emit)
	m.Counter("fabric.cells.failed").Add(uint64(unstarted))
	return err
}

// runCell dispatches one cell on a free slot until it completes, fails
// permanently or runs out of attempts; each retry takes a slot of
// another live worker when one exists.
func (c *Coordinator) runCell(ctx context.Context, f *fleet, p Params, cell *Cell) Result {
	m := c.opts.Metrics
	w := -1
	for attempt := 1; ; attempt++ {
		var err error
		if w, err = f.take(ctx, w); err != nil {
			m.Counter("fabric.cells.failed").Inc()
			return Result{Cell: *cell, Err: err, Attempts: attempt - 1}
		}
		url := c.opts.Workers[w]
		start := time.Now()
		run, retryable, err := c.dispatch(ctx, url, p, *cell)
		wall := time.Since(start)
		m.Histogram("fabric.dispatch.wall_ns").Observe(uint64(wall))
		// A dispatch cut short by the sweep's own cancellation says
		// nothing about the worker.
		if f.put(w, cell, err == nil, retryable && ctx.Err() == nil, c.opts.DeadAfter) {
			m.Counter("fabric.workers.dead").Inc()
		}
		if err == nil {
			m.Counter("fabric.cells.completed").Inc()
			return Result{Cell: *cell, Run: run, Wall: wall, Source: url, Attempts: attempt}
		}
		if !retryable || ctx.Err() != nil || attempt >= c.opts.MaxAttempts {
			m.Counter("fabric.cells.failed").Inc()
			return Result{Cell: *cell, Err: err, Wall: wall, Source: url, Attempts: attempt}
		}
		m.Counter("fabric.cells.redealt").Inc()
	}
}

// dispatch posts one cell to a worker and decodes the result. retryable
// distinguishes transport/worker faults (re-deal the cell) from
// semantic failures (the cell itself is bad — no worker will succeed).
func (c *Coordinator) dispatch(ctx context.Context, workerURL string, p Params, cell Cell) (run stats.Run, retryable bool, err error) {
	warm := p.Warmup
	body, err := json.Marshal(CellRequest{
		Bench:        cell.Bench,
		Config:       &cell.Config,
		Instructions: p.Instructions,
		Warmup:       &warm,
		Seed:         p.Seed,
		DeadlineMS:   c.opts.Lease.Milliseconds(),
	})
	if err != nil {
		return stats.Run{}, false, fmt.Errorf("fabric: encode cell: %w", err)
	}
	leaseCtx, cancel := context.WithTimeout(ctx, c.opts.Lease)
	defer cancel()
	req, err := http.NewRequestWithContext(leaseCtx, http.MethodPost, workerURL+"/v1/cell", bytes.NewReader(body))
	if err != nil {
		return stats.Run{}, false, fmt.Errorf("fabric: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		// Connection refused, reset, or lease expiry: the worker is gone
		// or wedged — forfeit and re-deal.
		return stats.Run{}, true, fmt.Errorf("fabric: worker %s: %w", workerURL, err)
	}
	defer func() { _ = resp.Body.Close() }() // read side only
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return stats.Run{}, true, fmt.Errorf("fabric: worker %s: reading response: %w", workerURL, err)
	}
	run, retryable, err = decodeCellReply(resp.StatusCode, data, cell.Key)
	if err != nil {
		if errors.Is(err, errKeyMismatch) {
			c.opts.Metrics.Counter("fabric.key_mismatch").Inc()
		}
		return stats.Run{}, retryable, fmt.Errorf("fabric: worker %s: %w", workerURL, err)
	}
	return run, false, nil
}

// errKeyMismatch marks a reply for a different key than the one sent.
var errKeyMismatch = errors.New("key mismatch (version skew?)")

// decodeCellReply decodes a worker's /v1/cell reply, given its HTTP
// status and body, for the cell keyed wantKey. A nil error comes with
// the run the reply carries for exactly that key. retryable tells a
// worker fault (re-deal the cell) from a failure of the cell itself,
// which no worker will serve. The error does not name the worker.
func decodeCellReply(status int, body []byte, wantKey string) (run stats.Run, retryable bool, err error) {
	if status != http.StatusOK {
		// 4xx means the cell (or this coordinator's request) is itself
		// invalid — re-dealing cannot help. Everything else is the
		// worker's problem and retryable.
		retryable = status < 400 || status >= 500 || status == http.StatusTooManyRequests
		return stats.Run{}, retryable, fmt.Errorf("status %d: %s", status, truncate(body, 200))
	}
	var cr CellResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		return stats.Run{}, true, fmt.Errorf("bad response: %w", err)
	}
	if cr.Key != wantKey {
		// Version skew: the worker canonicalizes the config differently.
		// Every worker of that build will disagree — not retryable.
		return stats.Run{}, false, fmt.Errorf("%w: got %s want %s", errKeyMismatch, KeySHA(cr.Key), KeySHA(wantKey))
	}
	if cr.Run == nil {
		return stats.Run{}, true, errors.New("response carries no run")
	}
	return *cr.Run, false, nil
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "…"
	}
	return string(b)
}
