// The cell loop: the one batch loop every pfserved role runs. A
// coordinator computes a miss by dispatching it to a worker; a
// standalone or worker daemon by simulating it. Everything around that
// step is shared:
//
//	cell → daemon memory → CAS on disk → compute → CAS fill
//
// The memory, the daemon's one result cache, admits what this process
// computed or dispatched and what it read from disk and verified, so a
// result stored only by Put (/v1/cell fill mode) waits for such a read.

package fabric

import (
	"context"
	"sync"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
)

// NewMemo builds a daemon's memory: up to 1,024 results, LRU beyond.
func NewMemo() *sched.Memo[stats.Run] { return sched.NewMemo[stats.Run](1024) }

// Loop answers a batch from the memory and CAS and computes the rest.
type Loop struct {
	// Memo is the daemon's memory, shared by all its batches. Required.
	Memo *sched.Memo[stats.Run]
	// CAS, when non-nil, answers what the memory did not hold and is
	// filled after every successful compute.
	CAS *CAS
	// Slots is the number of computes in flight at once (the sched pool
	// size; <= 0 selects GOMAXPROCS).
	Slots int
	// Metrics receives the scheduler's telemetry and "fabric.cas.hits".
	// Nil-safe.
	Metrics *metrics.Registry
	// Compute produces the result of one cell neither the memory nor the
	// CAS held, on a sched worker, once per key in flight.
	Compute func(ctx context.Context, cell *Cell) Result
}

// Run emits one Result per cell as results land, memory hits first, the
// rest in completion order; emit calls are serialized. A cell this batch
// did not compute (a memory hit, a share of another batch's computation
// or a verified CAS read) has Source "cas" and counts in
// "fabric.cas.hits". Cells sharing a key are answered once. The misses
// run as sched jobs by cost; the cells of keys the cancellation never
// started are emitted failed with its error. Run reports how many keys
// never started and returns ctx.Err() when cancelled.
func (l Loop) Run(ctx context.Context, cells []Cell, cost sched.CostModel, emit func(Result)) (unstarted int, err error) {
	var emitMu sync.Mutex
	send := func(r Result) {
		emitMu.Lock()
		emit(r)
		emitMu.Unlock()
	}

	// The hit pass never waits: a key another batch is computing misses
	// here, and its job shares that computation.
	var keys []string
	misses := make(map[string][]int)
	for i := range cells {
		if run, ok := l.Memo.Use(cells[i].Key); ok {
			l.Metrics.Counter("fabric.cas.hits").Inc()
			send(Result{Cell: cells[i], Run: run, Source: "cas"})
			continue
		}
		if misses[cells[i].Key] == nil {
			keys = append(keys, cells[i].Key)
		}
		misses[cells[i].Key] = append(misses[cells[i].Key], i)
	}
	if len(keys) == 0 {
		return 0, ctx.Err()
	}
	sendAll := func(r Result) {
		for _, i := range misses[r.Cell.Key] {
			r.Cell = cells[i]
			send(r)
		}
	}

	jobs := make([]sched.Job, len(keys))
	for k, key := range keys {
		cell := &cells[misses[key][0]]
		jobs[k] = sched.Job{Key: key, Cost: cost(cell.Bench), Run: func(ctx context.Context) (any, error) {
			sendAll(l.answer(ctx, cell))
			return nil, nil
		}}
	}
	results, err := sched.Run(ctx, jobs, sched.Options{Workers: l.Slots, Metrics: l.Metrics})
	for _, key := range keys {
		if r := results[key]; r.Worker < 0 {
			unstarted++
			sendAll(Result{Cell: cells[misses[key][0]], Err: r.Err})
		}
	}
	return unstarted, err
}

// answer resolves a cell the hit pass missed inside the memory's Do, so
// concurrent batches share one answer: a verified CAS read, else a
// compute that fills the CAS. A batch that shared a failure asks again
// while its own context lives: the failure may be the other batch's
// cancellation, and the memory keeps no failure.
func (l Loop) answer(ctx context.Context, cell *Cell) Result {
	for {
		var mine *Result
		run, err := l.Memo.Do(ctx, cell.Key, func(ctx context.Context) (stats.Run, error) {
			r := Result{Cell: *cell, Source: "cas"}
			var stored bool
			if r.Run, stored, _ = l.CAS.Get(cell.Key); !stored {
				if r = l.Compute(ctx, cell); r.Err == nil {
					_ = l.CAS.Put(cell.Key, r.Run) // a failed fill costs a later batch a compute, not this one
				}
			}
			mine = &r
			return r.Run, r.Err
		})
		switch {
		case mine != nil:
			return *mine
		case err == nil:
			l.Metrics.Counter("fabric.cas.hits").Inc()
			return Result{Cell: *cell, Run: run, Source: "cas"}
		case ctx.Err() != nil:
			return Result{Cell: *cell, Err: err}
		}
	}
}
