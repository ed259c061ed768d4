package bench

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
)

// probeReps repeats each harness probe; the median is reported.
const probeReps = 5

// probes times the harness layers every workload shares, by direct calls:
// the scheduler over no-op jobs, and the CAS storing and reading back one
// round of this workload's results in a fresh directory.
func (r *run) probes(runs map[string]stats.Run) error {
	const nJobs = 10_000
	jobs := make([]sched.Job, nJobs)
	for i := range jobs {
		jobs[i] = sched.Job{Key: strconv.Itoa(i), Run: func(context.Context) (any, error) { return nil, nil }}
	}
	var perJob, steals []float64
	for i := 0; i < probeReps; i++ {
		reg := metrics.New()
		t := time.Now()
		// Background never cancels, so sched.Run's error is always nil.
		_, _ = sched.Run(context.Background(), jobs, sched.Options{Workers: r.jobs, Metrics: reg})
		perJob = append(perJob, float64(time.Since(t))/1e3/nJobs)
		steals = append(steals, float64(reg.Counter("sched.steals").Value()))
	}
	r.metrics["sched.overhead_us_per_job"] = median(perJob)
	r.metrics["sched.steals"] = median(steals)

	dir, err := os.MkdirTemp("", "cas-probe-")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }() // scratch space only
	cas, err := fabric.OpenCAS(dir, nil)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(runs))
	for name := range runs {
		names = append(names, name)
	}
	sort.Strings(names)
	key := func(name string) string { return fmt.Sprintf("%s|seed=%d", name, r.opts.Seed) }
	var puts, gets []float64
	for _, name := range names {
		t := time.Now()
		if err := cas.Put(key(name), runs[name]); err != nil {
			return err
		}
		puts = append(puts, float64(time.Since(t))/1e3)
	}
	for _, name := range names {
		t := time.Now()
		got, ok, err := cas.Get(key(name))
		gets = append(gets, float64(time.Since(t))/1e3)
		if err != nil || !ok {
			return fmt.Errorf("bench: cas probe: %s did not read back (%v)", name, err)
		}
		r.attempted++
		if summary(name, got) != summary(name, runs[name]) {
			r.fail(1, "%s: cas read back %q", name, summary(name, got))
		}
	}
	r.metrics["fabric.cas_put_us"] = median(puts)
	r.metrics["fabric.cas_get_us"] = median(gets)
	return nil
}
