// Package fabric is the distributed sweep fabric: a coordinator that
// shards a sweep's cells across remote worker processes over HTTP,
// backed by an on-disk content-addressed store of completed results.
//
// It generalizes internal/sched's shard-aware work stealing from
// goroutines to processes:
//
//   - Cells are keyed by experiments.CacheKey — the same fully-qualified
//     key the in-process memo uses — so a cell computed anywhere is a
//     cell computed everywhere.
//   - The coordinator probes the CAS first: hot cells are answered from
//     disk in milliseconds without simulating at all. Only misses are
//     dealt.
//   - Misses are sorted longest-first by the scheduler's cost model and
//     dealt round-robin into per-worker deques. A worker connection that
//     runs dry pops from its own deque front and steals from the BACK of
//     a victim's deque — exactly sched's policy, with HTTP dispatch
//     where sched has a function call.
//   - Every dispatch carries a lease (a per-request deadline). A worker
//     that dies, or that misses its lease, forfeits the cell: it is
//     re-dealt to another worker, and a worker that fails repeatedly is
//     marked dead and dealt nothing further. The sweep completes as long
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
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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
	// Stolen reports that the executing worker stole the cell from
	// another worker's deque.
	Stolen bool
}

// Options configure a Coordinator.
type Options struct {
	// Workers is the list of worker base URLs (e.g. "http://host:8077").
	// At least one is required.
	Workers []string
	// CAS, when non-nil, is probed before dealing and filled after every
	// completed cell.
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
// concurrent use (each Run call has its own dealing state).
type Coordinator struct {
	opts Options
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
	return &Coordinator{opts: opts}, nil
}

// Workers returns the configured worker URLs.
func (c *Coordinator) Workers() []string {
	out := make([]string, len(c.opts.Workers))
	copy(out, c.opts.Workers)
	return out
}

// CAS returns the coordinator's store (nil if none).
func (c *Coordinator) CAS() *CAS { return c.opts.CAS }

// dealState is one Run's shared dealing structure: per-worker deques
// over indices into the cell slice, guarded by one mutex + cond (cells
// are whole simulations; the lock is touched a few times per cell,
// never in a hot loop).
type dealState struct {
	mu   sync.Mutex
	cond *sync.Cond

	deques [][]int // per-worker FIFO; front = owner's end, back = thief's end
	dead   []bool
	alive  int
	// outstanding counts cells not yet emitted (queued or in flight).
	outstanding int
	cancelled   bool
}

// take returns the next cell index for worker self, blocking until work
// arrives (a re-deal), everything is done, the run is cancelled, or
// self is marked dead. stolen reports the cell came from a victim's
// deque.
func (d *dealState) take(self int) (idx int, stolen bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.outstanding == 0 || d.cancelled || d.dead[self] {
			return -1, false
		}
		if q := d.deques[self]; len(q) > 0 {
			idx = q[0]
			d.deques[self] = q[1:]
			return idx, false
		}
		// Scan victims round-robin from the right neighbour, stealing
		// their cheapest queued cell (dead workers' deques included —
		// someone must drain them).
		for k := 1; k < len(d.deques); k++ {
			v := (self + k) % len(d.deques)
			if q := d.deques[v]; len(q) > 0 {
				idx = q[len(q)-1]
				d.deques[v] = q[:len(q)-1]
				return idx, true
			}
		}
		// Nothing queued, but cells are in flight elsewhere: a failure
		// may re-deal one our way. Wait for the next event.
		d.cond.Wait()
	}
}

// redeal queues idx for the next alive worker after from.
func (d *dealState) redeal(idx, from int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	target := from
	for k := 1; k < len(d.deques); k++ {
		w := (from + k) % len(d.deques)
		if !d.dead[w] {
			target = w
			break
		}
	}
	d.deques[target] = append(d.deques[target], idx)
	d.cond.Broadcast()
}

// complete marks one cell emitted.
func (d *dealState) complete() {
	d.mu.Lock()
	d.outstanding--
	if d.outstanding == 0 {
		d.cond.Broadcast()
	}
	d.mu.Unlock()
}

// markDead flags a worker dead, reporting whether this call performed
// the transition (false if the worker was already dead — a worker's fan
// goroutines race to report the same corpse).
func (d *dealState) markDead(w int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead[w] {
		return false
	}
	d.dead[w] = true
	d.alive--
	d.cond.Broadcast()
	return true
}

// cancel wakes every waiter for shutdown.
func (d *dealState) cancel() {
	d.mu.Lock()
	d.cancelled = true
	d.cond.Broadcast()
	d.mu.Unlock()
}

// drain removes and returns every still-queued cell index.
func (d *dealState) drain() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var rest []int
	for w := range d.deques {
		rest = append(rest, d.deques[w]...)
		d.deques[w] = nil
	}
	return rest
}

// Run executes cells across the worker fleet and calls emit once per
// cell as results land (CAS hits first, then remote completions in
// completion order). emit calls are serialized. cost orders the initial
// deal longest-first (sched's policy); pass sched.ConstCost(1) when no
// history exists. Run returns ctx.Err() when cancelled; per-cell
// failures are reported through emit, not the return value.
func (c *Coordinator) Run(ctx context.Context, p Params, cells []Cell, cost sched.CostModel, emit func(Result)) error {
	m := c.opts.Metrics
	var emitMu sync.Mutex
	send := func(r Result) {
		emitMu.Lock()
		emit(r)
		emitMu.Unlock()
	}

	// CAS pass: hot cells never touch a worker.
	pending := make([]int, 0, len(cells))
	for i := range cells {
		if c.opts.CAS != nil {
			if run, ok, _ := c.opts.CAS.Get(cells[i].Key); ok {
				send(Result{Cell: cells[i], Run: run, Source: "cas"})
				continue
			}
		}
		pending = append(pending, i)
	}
	if len(pending) == 0 {
		return ctx.Err()
	}

	// Longest-first, ties broken by key: the deal is deterministic.
	sort.Slice(pending, func(a, b int) bool {
		ca, cb := cost(cells[pending[a]].Bench), cost(cells[pending[b]].Bench)
		if ca != cb {
			return ca > cb
		}
		return cells[pending[a]].Key < cells[pending[b]].Key
	})

	workers := len(c.opts.Workers)
	d := &dealState{
		deques:      make([][]int, workers),
		dead:        make([]bool, workers),
		alive:       workers,
		outstanding: len(pending),
	}
	d.cond = sync.NewCond(&d.mu)
	for pos, idx := range pending {
		w := pos % workers
		d.deques[w] = append(d.deques[w], idx)
	}
	m.Counter("fabric.cells.dealt").Add(uint64(len(pending)))

	// Wake waiters if the caller cancels mid-sweep.
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			d.cancel()
		case <-watchDone:
		}
	}()

	// attempts[idx] is owned by whichever goroutine holds idx; ownership
	// transfers through the deques under d.mu, so plain ints are sound.
	// strikes are shared by a worker's fan goroutines, hence atomic.
	attempts := make([]int, len(cells))
	strikes := make([]atomic.Int32, workers) // consecutive transport failures

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		for f := 0; f < c.opts.PerWorker; f++ {
			wg.Add(1)
			go func(self int) {
				defer wg.Done()
				for {
					idx, stolen := d.take(self)
					if idx < 0 {
						return
					}
					if stolen {
						m.Counter("fabric.cells.stolen").Inc()
					}
					attempts[idx]++ // this goroutine owns idx until emit or redeal
					start := time.Now()
					run, retryable, err := c.dispatch(ctx, c.opts.Workers[self], p, cells[idx])
					wall := time.Since(start)
					m.Histogram("fabric.dispatch.wall_ns").Observe(uint64(wall))
					if err == nil {
						strikes[self].Store(0)
						if c.opts.CAS != nil {
							// A fill failure degrades the next sweep to
							// re-simulating; it does not fail this one.
							_ = c.opts.CAS.Put(cells[idx].Key, run)
						}
						m.Counter("fabric.cells.completed").Inc()
						send(Result{
							Cell: cells[idx], Run: run, Wall: wall,
							Source: c.opts.Workers[self], Attempts: attempts[idx], Stolen: stolen,
						})
						d.complete()
						continue
					}
					if retryable && ctx.Err() == nil && attempts[idx] < c.opts.MaxAttempts {
						m.Counter("fabric.cells.redealt").Inc()
						d.redeal(idx, self)
					} else {
						m.Counter("fabric.cells.failed").Inc()
						send(Result{
							Cell: cells[idx], Err: err, Wall: wall,
							Source: c.opts.Workers[self], Attempts: attempts[idx], Stolen: stolen,
						})
						d.complete()
					}
					if retryable {
						if int(strikes[self].Add(1)) >= c.opts.DeadAfter {
							if d.markDead(self) {
								m.Counter("fabric.workers.dead").Inc()
							}
							return
						}
					}
				}
			}(w)
		}
	}
	wg.Wait()
	close(watchDone)

	// Anything still queued never ran: every worker died, or the run was
	// cancelled.
	leftErr := ctx.Err()
	if leftErr == nil {
		leftErr = fmt.Errorf("fabric: every worker is dead")
	}
	for _, idx := range d.drain() {
		m.Counter("fabric.cells.failed").Inc()
		send(Result{Cell: cells[idx], Err: leftErr, Attempts: attempts[idx]})
	}
	return ctx.Err()
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
	if resp.StatusCode != http.StatusOK {
		// 4xx means the cell (or this coordinator's request) is itself
		// invalid — re-dealing cannot help. Everything else is the
		// worker's problem and retryable.
		retryable = resp.StatusCode < 400 || resp.StatusCode >= 500 ||
			resp.StatusCode == http.StatusTooManyRequests
		return stats.Run{}, retryable, fmt.Errorf("fabric: worker %s: status %d: %s", workerURL, resp.StatusCode, truncate(data, 200))
	}
	var cr CellResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		return stats.Run{}, true, fmt.Errorf("fabric: worker %s: bad response: %w", workerURL, err)
	}
	if cr.Key != cell.Key {
		// Version skew: the worker canonicalizes the config differently.
		// Every worker of that build will disagree — not retryable.
		c.opts.Metrics.Counter("fabric.key_mismatch").Inc()
		return stats.Run{}, false, fmt.Errorf("fabric: worker %s: key mismatch (version skew?): got %s want %s",
			workerURL, KeySHA(cr.Key), KeySHA(cell.Key))
	}
	if cr.Run == nil {
		return stats.Run{}, true, fmt.Errorf("fabric: worker %s: response carries no run", workerURL)
	}
	return *cr.Run, false, nil
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "…"
	}
	return string(b)
}
