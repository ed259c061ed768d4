// The cell loop: the one batch loop every pfserved role runs. A
// coordinator computes a miss by dispatching it to a worker; a
// standalone or worker daemon by simulating it. Everything around that
// step is shared:
//
//	cell → CAS memory tier → CAS on disk → compute → CAS fill

package fabric

import (
	"context"
	"sync"

	"repro/internal/metrics"
	"repro/internal/sched"
)

// Loop answers a batch of cells from the CAS and computes the rest.
type Loop struct {
	// CAS, when non-nil, answers cells before anything is computed and
	// is filled after every successful compute.
	CAS *CAS
	// Slots is the number of computes in flight at once (the sched pool
	// size; <= 0 selects GOMAXPROCS).
	Slots int
	// Metrics receives the scheduler's telemetry. Nil-safe.
	Metrics *metrics.Registry
	// Compute produces the result of one cell the CAS did not hold. It
	// runs once per distinct key, on a sched worker.
	Compute func(ctx context.Context, cell *Cell) Result
}

// Run emits one Result per cell as results land: CAS hits first, with
// Source "cas", then computed keys in completion order. emit calls are
// serialized. Cells sharing a key are computed once and each emitted
// with that result. The misses run as sched jobs, longest-first by cost;
// the cells of keys the cancellation never started are emitted failed
// with its error. Run reports how many keys missed the CAS and how many
// of them never started, and returns ctx.Err() when cancelled; a cell's
// failure rides its Result, not the return value.
func (l Loop) Run(ctx context.Context, cells []Cell, cost sched.CostModel, emit func(Result)) (missed, unstarted int, err error) {
	var emitMu sync.Mutex
	send := func(r Result) {
		emitMu.Lock()
		emit(r)
		emitMu.Unlock()
	}

	var keys []string
	misses := make(map[string][]int)
	for i := range cells {
		if l.CAS != nil {
			if run, ok, _ := l.CAS.Get(cells[i].Key); ok {
				send(Result{Cell: cells[i], Run: run, Source: "cas"})
				continue
			}
		}
		if misses[cells[i].Key] == nil {
			keys = append(keys, cells[i].Key)
		}
		misses[cells[i].Key] = append(misses[cells[i].Key], i)
	}
	if len(keys) == 0 {
		return 0, 0, ctx.Err()
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
			r := l.Compute(ctx, cell)
			if r.Err == nil && l.CAS != nil {
				// A fill failure degrades the next batch to computing
				// again; it does not fail this one.
				_ = l.CAS.Put(cell.Key, r.Run)
			}
			sendAll(r)
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
	return len(keys), unstarted, err
}
