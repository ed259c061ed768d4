package sched

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// valueJob returns a job whose result is a pure function of its key.
func valueJob(key string, cost uint64) Job {
	return Job{
		Key:  key,
		Cost: cost,
		Run: func(context.Context) (any, error) {
			return "v:" + key, nil
		},
	}
}

func TestRunZeroJobs(t *testing.T) {
	res, err := Run(context.Background(), nil, Options{Workers: 4})
	if err != nil {
		t.Fatalf("zero jobs: %v", err)
	}
	if len(res) != 0 {
		t.Fatalf("zero jobs produced %d results", len(res))
	}
}

func TestRunMoreWorkersThanJobs(t *testing.T) {
	jobs := []Job{valueJob("a", 3), valueJob("b", 2), valueJob("c", 1)}
	res, err := Run(context.Background(), jobs, Options{Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	for _, k := range []string{"a", "b", "c"} {
		r := res[k]
		if r.Err != nil || r.Value != "v:"+k {
			t.Errorf("job %s: value=%v err=%v", k, r.Value, r.Err)
		}
		if r.Worker < 0 {
			t.Errorf("job %s never assigned a worker", k)
		}
	}
}

// TestRunStealOrderPermutation runs the same job set at several worker
// counts — which permutes execution and steal order — and requires the
// result map to be identical every time. This is the scheduler-level
// half of the determinism guarantee; the harness-level half is the
// byte-identical Fingerprint test in internal/sim.
func TestRunStealOrderPermutation(t *testing.T) {
	const n = 50
	build := func() []Job {
		jobs := make([]Job, 0, n)
		for i := 0; i < n; i++ {
			jobs = append(jobs, valueJob(fmt.Sprintf("job-%02d", i), uint64(i%7)))
		}
		return jobs
	}
	want, err := Run(context.Background(), build(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := Run(context.Background(), build(), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for k, w := range want {
			g := got[k]
			if g.Value != w.Value || (g.Err == nil) != (w.Err == nil) {
				t.Errorf("workers=%d key=%s: value %v vs %v", workers, k, g.Value, w.Value)
			}
		}
	}
}

func TestRunCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var startOnce sync.Once
	var ran atomic.Int32

	jobs := make([]Job, 0, 32)
	for i := 0; i < 32; i++ {
		jobs = append(jobs, Job{
			Key: fmt.Sprintf("slow-%02d", i),
			Run: func(ctx context.Context) (any, error) {
				startOnce.Do(func() { close(started) })
				ran.Add(1)
				<-ctx.Done() // block until cancelled, like a run honouring its deadline
				return nil, ctx.Err()
			},
		})
	}
	done := make(chan struct{})
	var res map[string]Result
	var err error
	go func() {
		res, err = Run(ctx, jobs, Options{Workers: 2})
		close(done)
	}()
	<-started
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res) != 32 {
		t.Fatalf("got %d results, want 32 (cancelled jobs must still report)", len(res))
	}
	var cancelledUnstarted int
	for _, r := range res {
		if r.Worker == -1 {
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("unstarted job %s: err = %v, want Canceled", r.Key, r.Err)
			}
			cancelledUnstarted++
		}
	}
	if int(ran.Load())+cancelledUnstarted != 32 {
		t.Errorf("ran %d + unstarted %d != 32", ran.Load(), cancelledUnstarted)
	}
	if cancelledUnstarted == 0 {
		t.Error("cancellation mid-run left no unstarted jobs; test lost its race")
	}
}

func TestRunSingleFlightDuplicateKeys(t *testing.T) {
	var calls atomic.Int32
	job := Job{
		Key: "dup",
		Run: func(context.Context) (any, error) {
			calls.Add(1)
			return 42, nil
		},
	}
	res, err := Run(context.Background(), []Job{job, job, job, job}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("duplicate key ran %d times, want 1", n)
	}
	if res["dup"].Value != 42 {
		t.Fatalf("dup value = %v", res["dup"].Value)
	}
}

func TestRunJobErrorDoesNotAbort(t *testing.T) {
	boom := errors.New("boom")
	jobs := []Job{
		{Key: "bad", Run: func(context.Context) (any, error) { return nil, boom }},
		valueJob("good", 1),
	}
	res, err := Run(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatalf("job error escalated to run error: %v", err)
	}
	if !errors.Is(res["bad"].Err, boom) {
		t.Errorf("bad job err = %v", res["bad"].Err)
	}
	if res["good"].Err != nil || res["good"].Value != "v:good" {
		t.Errorf("good job: %+v", res["good"])
	}
}

func TestRunMetricsTelemetry(t *testing.T) {
	reg := metrics.New()
	jobs := make([]Job, 0, 20)
	for i := 0; i < 20; i++ {
		jobs = append(jobs, valueJob(fmt.Sprintf("m-%02d", i), uint64(i)))
	}
	if _, err := Run(context.Background(), jobs, Options{Workers: 4, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["sched.jobs"]; got != 20 {
		t.Errorf("sched.jobs = %d, want 20", got)
	}
	if hv := snap.Histograms["sched.job_wall_ns"]; hv.Count != 20 {
		t.Errorf("sched.job_wall_ns count = %d, want 20", hv.Count)
	}
}

func TestMemoSingleFlight(t *testing.T) {
	m := NewMemo[int](8)
	var calls atomic.Int32
	release := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	vals := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := m.Do(context.Background(), "k", func(context.Context) (int, error) {
				calls.Add(1)
				<-release
				return 7, nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			vals[i] = v
		}(i)
	}
	// Let the goroutines pile onto the key, then release the computation.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	for i, v := range vals {
		if v != 7 {
			t.Errorf("waiter %d got %d", i, v)
		}
	}
}

func TestMemoErrorsNotCached(t *testing.T) {
	m := NewMemo[int](8)
	var calls int
	fn := func(context.Context) (int, error) {
		calls++
		if calls == 1 {
			return 0, errors.New("transient")
		}
		return 5, nil
	}
	if _, err := m.Do(context.Background(), "k", fn); err == nil {
		t.Fatal("first call should fail")
	}
	v, err := m.Do(context.Background(), "k", fn)
	if err != nil || v != 5 {
		t.Fatalf("retry: v=%d err=%v", v, err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (error must not be cached)", calls)
	}
}

func TestMemoBound(t *testing.T) {
	m := NewMemo[int](4)
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, err := m.Do(context.Background(), k, func(context.Context) (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.Len(); n > 4 {
		t.Fatalf("memo holds %d entries, bound is 4", n)
	}
	// The most recent key must have survived LRU eviction.
	if v, ok := m.Get("k19"); !ok || v != 19 {
		t.Fatalf("most recent entry evicted: v=%d ok=%v", v, ok)
	}
	if _, ok := m.Get("k0"); ok {
		t.Fatal("oldest entry survived a full-bound churn")
	}
}

func TestMemoSlowCompletionSurvivesNewerInserts(t *testing.T) {
	// Regression: the LRU stamp used to be assigned only at insert, so a
	// long-running computation finished holding the oldest seq in the
	// cache and was the eviction victim the moment it completed. The
	// stamp must be refreshed on successful completion.
	m := NewMemo[int](2)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := m.Do(context.Background(), "slow", func(context.Context) (int, error) {
			<-release
			return 42, nil
		}); err != nil {
			t.Error(err)
		}
	}()
	// Wait for the slow computation to be in flight.
	for m.Len() == 0 {
		time.Sleep(time.Millisecond)
	}
	// A burst of newer inserts, every one outranking slow's insert stamp.
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("fast%d", i)
		if _, err := m.Do(context.Background(), k, func(context.Context) (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	<-done
	if v, ok := m.Get("slow"); !ok || v != 42 {
		t.Fatalf("slow computation evicted on completion: v=%d ok=%v", v, ok)
	}
	if n := m.Len(); n > 2 { // bound still holds once everything completed
		t.Fatalf("memo holds %d entries, bound is 2", n)
	}
}

func TestMemoWaiterCancellation(t *testing.T) {
	m := NewMemo[int](4)
	release := make(chan struct{})
	go m.Do(context.Background(), "k", func(context.Context) (int, error) {
		<-release
		return 1, nil
	})
	time.Sleep(10 * time.Millisecond) // owner in flight
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := m.Do(ctx, "k", func(context.Context) (int, error) { return 2, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v", err)
	}
	close(release)
}

// TestMemoUse: Use answers a completed entry and refreshes it like a Do
// hit, and reports an in-flight entry absent without waiting for it.
func TestMemoUse(t *testing.T) {
	m := NewMemo[int](2)
	for i, k := range []string{"a", "b"} {
		if _, err := m.Do(context.Background(), k, func(context.Context) (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := m.Use("a"); !ok || v != 0 {
		t.Fatalf("Use(a) = %d, %v; want 0, true", v, ok)
	}
	if _, err := m.Do(context.Background(), "c", func(context.Context) (int, error) { return 2, nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get("a"); !ok {
		t.Fatal("Use did not refresh a: inserting c evicted it")
	}
	if _, ok := m.Get("b"); ok {
		t.Fatal("b survived: Use must make a, not b, the most recent")
	}

	release, started := make(chan struct{}), make(chan struct{})
	defer close(release)
	go m.Do(context.Background(), "slow", func(context.Context) (int, error) {
		close(started)
		<-release
		return 3, nil
	})
	<-started
	if _, ok := m.Use("slow"); ok {
		t.Fatal("Use answered an in-flight entry")
	}
	if _, ok := m.Use("missing"); ok {
		t.Fatal("Use answered an absent key")
	}
}

func TestCostFromSnapshot(t *testing.T) {
	reg := metrics.New()
	reg.Histogram("experiments.sim.wall_ns.mcf").Observe(1000)
	reg.Histogram("experiments.sim.wall_ns.mcf").Observe(3000)
	reg.Histogram("experiments.sim.wall_ns.gzip").Observe(100)
	model := CostFromSnapshot(reg.Snapshot(), "experiments.sim.wall_ns.", 77)
	if c := model("mcf"); c != 2000 {
		t.Errorf("mcf cost = %d, want 2000 (histogram mean)", c)
	}
	if c := model("gzip"); c != 100 {
		t.Errorf("gzip cost = %d, want 100", c)
	}
	if c := model("unknown"); c != 77 {
		t.Errorf("unknown cost = %d, want fallback 77", c)
	}
}

// TestMemoEvictionOrder scripts inserts, Do hits and Gets against a
// bound of 3 and checks the survivors, least recently used first, after
// every step. A Do hit refreshes an entry, a Get does not, an in-flight
// entry neither counts against the bound nor is evicted, and a failure
// is never retained.
func TestMemoEvictionOrder(t *testing.T) {
	m := NewMemo[string](3)
	do := func(k string) {
		t.Helper()
		if v, err := m.Do(context.Background(), k, func(context.Context) (string, error) { return k, nil }); err != nil || v != k {
			t.Fatalf("Do(%s) = %q, %v", k, v, err)
		}
	}
	check := func(step string, wantLen int, want ...string) {
		t.Helper()
		m.mu.Lock()
		var got []string
		for e := m.lru.Front(); e != nil; e = e.Next() {
			got = append(got, e.Value.(*memoEntry[string]).key)
		}
		listed := m.lru.Len()
		m.mu.Unlock()
		if !reflect.DeepEqual(got, want) || listed != len(want) {
			t.Fatalf("%s: survivors %v (listed %d), want %v", step, got, listed, want)
		}
		for _, k := range want {
			if v, ok := m.Get(k); !ok || v != k {
				t.Fatalf("%s: Get(%s) = %q, %v", step, k, v, ok)
			}
		}
		if n := m.Len(); n != wantLen {
			t.Fatalf("%s: Len = %d, want %d", step, n, wantLen)
		}
	}

	do("a")
	do("b")
	do("c")
	check("three inserts", 3, "a", "b", "c")
	do("a")
	check("hit on a", 3, "b", "c", "a")
	do("d")
	check("insert d evicts b", 3, "c", "a", "d")
	m.Get("c")
	do("e")
	check("Get is no use: insert e evicts c", 3, "a", "d", "e")

	release, started, finished := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		if _, err := m.Do(context.Background(), "slow", func(context.Context) (string, error) {
			close(started)
			<-release
			return "slow", nil
		}); err != nil {
			t.Error(err)
		}
	}()
	<-started
	check("in flight", 4, "a", "d", "e")
	do("f")
	check("insert f beside the in-flight entry", 4, "d", "e", "f")
	close(release)
	<-finished
	check("slow completes as most recent", 3, "e", "f", "slow")

	if _, err := m.Do(context.Background(), "bad", func(context.Context) (string, error) {
		return "", errors.New("boom")
	}); err == nil {
		t.Fatal("failing Do returned no error")
	}
	check("failure not retained", 3, "e", "f", "slow")
	do("e")
	do("g")
	check("hit on e, then g evicts f", 3, "slow", "e", "g")
}
