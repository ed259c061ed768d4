// Package sched is the experiment harness's longest-first scheduler.
//
// A simulation sweep is a bag of independent, deterministic jobs whose
// durations span two orders of magnitude (a 2M-instruction mcf run is
// ~30x a no-prefetch gzip run). A worker pool fed in arbitrary order
// leaves workers idle at the tail: the last long job lands on a busy
// worker while the rest have drained. This package runs one queue
// instead:
//
//   - Jobs are sorted once by a caller-supplied cost estimate, longest
//     first, ties by Key (see CostModel for the wall-time-histogram-backed
//     estimator).
//   - Each free worker claims the next job in that order, so the costliest
//     job not yet started always goes first: the longest-processing-time
//     (LPT) list schedule.
//   - Cancellation is context-based: workers stop claiming jobs as soon as
//     ctx is cancelled, in-flight jobs receive the cancelled ctx, and
//     never-started jobs report ctx.Err() as their result.
//
// Determinism: which worker runs a job and when it finishes depend on the
// job's wall time, so the scheduler must only ever be used for jobs that
// are independent and deterministic. Results are keyed by Job.Key, not by
// completion order; two runs over the same jobs produce identical result
// maps regardless of worker count. The experiments harness pins this with
// byte-identical fingerprint tests across 1, 4, and 8 workers (see
// docs/SCHEDULER.md).
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Job is one unit of independent, deterministic work.
type Job struct {
	// Key identifies the job. Jobs submitted with the same Key are
	// single-flighted: the first occurrence runs, later occurrences share
	// its result. Keys also name results in the returned map, so they
	// must be unique per distinct piece of work.
	Key string
	// Cost is the scheduler's relative wall-time estimate (any unit;
	// only the ordering matters). Zero is valid: jobs then start in Key
	// order, which is deterministic but not load-balanced.
	Cost uint64
	// Run does the work. It receives the scheduler's context and must
	// return promptly once the context is cancelled.
	Run func(ctx context.Context) (any, error)
}

// Result is the outcome of one job.
type Result struct {
	Key   string
	Value any
	Err   error
	// Wall is the job's execution wall time (zero if never started).
	Wall time.Duration
	// Worker is the index of the worker that executed the job; -1 if the
	// job never started (cancellation).
	Worker int
}

// Options configure a Run.
type Options struct {
	// Workers is the pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// Metrics, when non-nil, receives scheduler telemetry: "sched.jobs"
	// and "sched.cancelled" counters and a "sched.job_wall_ns" histogram.
	// Nil-safe, like every registry in this repo.
	Metrics *metrics.Registry
}

// Run executes the jobs longest-first on a pool of workers and returns
// one Result per distinct Key. It blocks until every started job has
// finished; when ctx is cancelled it stops starting jobs, marks the
// never-started ones with ctx.Err(), and returns ctx.Err() alongside the
// partial results. Job-level failures do NOT abort the run — they are
// reported in the per-job Result.Err and the caller decides; only ctx
// ends a sweep early.
func Run(ctx context.Context, jobs []Job, opts Options) (map[string]Result, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Single-flight by Key: the first occurrence is scheduled, duplicates
	// alias its result slot.
	unique := make([]Job, 0, len(jobs))
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if j.Run == nil {
			return nil, fmt.Errorf("sched: job %q has a nil Run", j.Key)
		}
		if seen[j.Key] {
			continue
		}
		seen[j.Key] = true
		unique = append(unique, j)
	}
	if len(unique) == 0 {
		return map[string]Result{}, ctx.Err()
	}
	if workers > len(unique) {
		workers = len(unique)
	}

	// The queue: longest-first, ties broken by Key so the order is
	// deterministic. Results stay in the same order.
	sort.Slice(unique, func(a, b int) bool {
		if unique[a].Cost != unique[b].Cost {
			return unique[a].Cost > unique[b].Cost
		}
		return unique[a].Key < unique[b].Key
	})
	results := make([]Result, len(unique))
	for i, j := range unique {
		results[i] = Result{Key: j.Key, Worker: -1}
	}

	var next atomic.Int64
	wallHist := opts.Metrics.Histogram("sched.job_wall_ns")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(unique) {
					return // queue empty; running jobs belong to their executors
				}
				start := time.Now()
				v, err := unique[i].Run(ctx)
				wall := time.Since(start)
				wallHist.Observe(uint64(wall))
				results[i] = Result{Key: unique[i].Key, Value: v, Err: err, Wall: wall, Worker: self}
			}
		}(w)
	}
	wg.Wait()

	// Anything never claimed was cancelled.
	var executed, cancelled uint64
	out := make(map[string]Result, len(unique))
	for _, r := range results {
		if r.Worker == -1 {
			r.Err = ctx.Err()
			cancelled++
		} else {
			executed++
		}
		out[r.Key] = r
	}
	opts.Metrics.Counter("sched.jobs").Add(executed)
	opts.Metrics.Counter("sched.cancelled").Add(cancelled)
	return out, ctx.Err()
}
