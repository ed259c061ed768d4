// Coordinator tests against fake HTTP workers: re-dealing around dead
// workers, permanent-failure classification, key cross-checking, and the
// CAS-first probe. The fake workers answer the real wire protocol but
// fabricate runs deterministically from the cell key, so every test can
// assert the exact result set.
package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
)

// testCells builds n distinct cells. Keys are synthetic: the coordinator
// never computes keys itself, it trusts Cell.Key and cross-checks the
// worker's answer — so tests control both sides.
func testCells(n int) []Cell {
	cfg := config.Default8K()
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{
			Key:    fmt.Sprintf("bench%02d|n=100|w=10|seed=1|{}", i),
			Bench:  fmt.Sprintf("bench%02d", i),
			Config: cfg,
		}
	}
	return cells
}

// keyFor mirrors testCells' key construction — what an agreeing worker
// computes from the request it receives.
func keyFor(req CellRequest) string {
	return fmt.Sprintf("%s|n=%d|w=%d|seed=%d|{}", req.Bench, req.Instructions, *req.Warmup, req.Seed)
}

// runFor fabricates the deterministic result every honest worker returns
// for a key.
func runFor(key string) stats.Run {
	return stats.Run{Benchmark: key, Instructions: uint64(len(key)), Cycles: 2 * uint64(len(key))}
}

// fakeWorker serves the cell protocol; respond can rewrite the response
// (or answer itself and return false).
func fakeWorker(t *testing.T, hits *atomic.Int64, respond func(w http.ResponseWriter, cr *CellResponse) bool) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits != nil {
			hits.Add(1)
		}
		var req CellRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		key := keyFor(req)
		run := runFor(key)
		cr := CellResponse{Key: key, KeySHA: KeySHA(key), Run: &run, Source: "sim"}
		if respond != nil && !respond(w, &cr) {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(cr); err != nil {
			t.Errorf("fake worker encode: %v", err)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// collect runs the coordinator and gathers results by key.
func collect(t *testing.T, c *Coordinator, cells []Cell) map[string]Result {
	t.Helper()
	out := make(map[string]Result, len(cells))
	err := c.Run(context.Background(), Params{Instructions: 100, Warmup: 10, Seed: 1}, cells, sched.ConstCost(1), func(r Result) {
		if _, dup := out[r.Cell.Key]; dup {
			t.Errorf("cell %s emitted twice", r.Cell.Key)
		}
		out[r.Cell.Key] = r
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(out) != len(cells) {
		t.Fatalf("emitted %d results, want %d", len(out), len(cells))
	}
	return out
}

func TestCoordinatorCompletesAndFillsCAS(t *testing.T) {
	cas, _ := openTestCAS(t)
	var hits atomic.Int64
	w1 := fakeWorker(t, &hits, nil)
	w2 := fakeWorker(t, &hits, nil)
	m := metrics.New()
	c, err := New(Options{Workers: []string{w1.URL, w2.URL}, CAS: cas, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}

	cells := testCells(8)
	out := collect(t, c, cells)
	for _, r := range out {
		if r.Err != nil {
			t.Fatalf("cell %s failed: %v", r.Cell.Key, r.Err)
		}
		if r.Source != w1.URL && r.Source != w2.URL {
			t.Fatalf("cell %s source = %q, want a worker URL", r.Cell.Key, r.Source)
		}
	}
	if n, _ := cas.Len(); n != len(cells) {
		t.Fatalf("CAS holds %d entries after the sweep, want %d", n, len(cells))
	}

	// Second identical sweep: every cell answers from the CAS pass, no
	// worker sees a single request.
	before := hits.Load()
	out2 := collect(t, c, cells)
	for _, r := range out2 {
		if r.Err != nil || r.Source != "cas" {
			t.Fatalf("repeat sweep cell %s: err=%v source=%q, want CAS hit", r.Cell.Key, r.Err, r.Source)
		}
	}
	if hits.Load() != before {
		t.Fatalf("repeat sweep dispatched %d requests, want 0", hits.Load()-before)
	}
	// The two sweeps agree byte for byte.
	runs1, runs2 := map[string]stats.Run{}, map[string]stats.Run{}
	for k, r := range out {
		runs1[k] = r.Run
	}
	for k, r := range out2 {
		runs2[k] = r.Run
	}
	if Fingerprint(runs1) != Fingerprint(runs2) {
		t.Fatal("CAS-served sweep fingerprint differs from the simulated one")
	}
}

func TestCoordinatorRedealsAroundDeadWorker(t *testing.T) {
	// Worker 0 is a corpse: it drops every connection unanswered, so
	// every dispatch is a transport failure. (A closed listener would do
	// the same until the next test server reused its port.) Its cells
	// must be re-dealt to worker 1 and the sweep must complete.
	corpse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
			_ = conn.Close()
		}
	}))
	t.Cleanup(corpse.Close)
	corpseURL := corpse.URL
	var hits atomic.Int64
	alive := fakeWorker(t, &hits, nil)

	m := metrics.New()
	c, err := New(Options{
		Workers:     []string{corpseURL, alive.URL},
		Lease:       5 * time.Second,
		MaxAttempts: 3,
		DeadAfter:   2,
		Metrics:     m,
	})
	if err != nil {
		t.Fatal(err)
	}

	cells := testCells(10)
	out := collect(t, c, cells)
	for _, r := range out {
		if r.Err != nil {
			t.Fatalf("cell %s failed: %v", r.Cell.Key, r.Err)
		}
		if r.Source != alive.URL {
			t.Fatalf("cell %s source = %q, want the surviving worker", r.Cell.Key, r.Source)
		}
	}
	snap := m.Snapshot()
	if snap.Counters["fabric.workers.dead"] != 1 {
		t.Fatalf("workers.dead = %d, want 1", snap.Counters["fabric.workers.dead"])
	}
	if snap.Counters["fabric.cells.redealt"] == 0 {
		t.Fatal("no cells were re-dealt despite a dead worker")
	}
	if got := snap.Counters["fabric.cells.completed"]; got != uint64(len(cells)) {
		t.Fatalf("cells.completed = %d, want %d", got, len(cells))
	}
}

func TestCoordinatorBadCellKillsNoWorker(t *testing.T) {
	// One cell fails on every worker with a 500 (a sim error) while the
	// rest succeed. Its retries must go to the other worker, so with
	// PerWorker 1 and the default DeadAfter neither healthy worker dies
	// and every good cell completes.
	cells := testCells(10)
	bad := cells[0].Key
	failBad := func(rw http.ResponseWriter, cr *CellResponse) bool {
		if cr.Key == bad {
			http.Error(rw, "simulation failed", http.StatusInternalServerError)
			return false
		}
		return true
	}
	w1, w2 := fakeWorker(t, nil, failBad), fakeWorker(t, nil, failBad)
	m := metrics.New()
	c, err := New(Options{Workers: []string{w1.URL, w2.URL}, PerWorker: 1, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range collect(t, c, cells) {
		if k == bad {
			if r.Err == nil || r.Attempts != 3 {
				t.Errorf("bad cell: err=%v after %d attempts, want a failure after 3", r.Err, r.Attempts)
			}
		} else if r.Err != nil {
			t.Errorf("cell %s failed: %v", k, r.Err)
		}
	}
	if n := m.Snapshot().Counters["fabric.workers.dead"]; n != 0 {
		t.Fatalf("workers.dead = %d, want 0: one bad cell must not kill a worker", n)
	}
}

func TestCoordinatorDispatchesDuplicateKeysOnce(t *testing.T) {
	var hits atomic.Int64
	w := fakeWorker(t, &hits, nil)
	c, err := New(Options{Workers: []string{w.URL}, Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells(3)
	cells = append(cells, cells[1], cells[1])
	emitted := map[string]int{}
	err = c.Run(context.Background(), Params{Instructions: 100, Warmup: 10, Seed: 1}, cells, sched.ConstCost(1), func(r Result) {
		if r.Err != nil {
			t.Errorf("cell %s failed: %v", r.Cell.Key, r.Err)
		}
		emitted[r.Cell.Key]++
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{1, 3, 1} {
		if got := emitted[cells[i].Key]; got != want {
			t.Errorf("cell %s emitted %d times, want %d", cells[i].Key, got, want)
		}
	}
	if hits.Load() != 3 {
		t.Fatalf("worker saw %d requests, want one per distinct key (3)", hits.Load())
	}
}

func TestCoordinatorAllWorkersDead(t *testing.T) {
	corpse := httptest.NewServer(http.NotFoundHandler())
	url := corpse.URL
	corpse.Close()
	c, err := New(Options{Workers: []string{url}, DeadAfter: 1, Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells(4)
	got := 0
	err = c.Run(context.Background(), Params{Instructions: 100, Warmup: 10, Seed: 1}, cells, sched.ConstCost(1), func(r Result) {
		got++
		if r.Err == nil {
			t.Errorf("cell %s succeeded against a dead fleet", r.Cell.Key)
		}
	})
	if err != nil {
		t.Fatalf("Run returned %v; fleet death is reported per-cell, not as a run error", err)
	}
	if got != len(cells) {
		t.Fatalf("emitted %d results, want %d (every cell must fail explicitly)", got, len(cells))
	}
}

func TestCoordinatorPermanentFailureIsNotRetried(t *testing.T) {
	var hits atomic.Int64
	w := fakeWorker(t, &hits, func(rw http.ResponseWriter, _ *CellResponse) bool {
		http.Error(rw, "no such benchmark", http.StatusBadRequest)
		return false
	})
	c, err := New(Options{Workers: []string{w.URL}, MaxAttempts: 3, Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells(3)
	out := collect(t, c, cells)
	for _, r := range out {
		if r.Err == nil || !strings.Contains(r.Err.Error(), "status 400") {
			t.Fatalf("cell %s: err = %v, want a permanent status-400 failure", r.Cell.Key, r.Err)
		}
		if r.Attempts != 1 {
			t.Fatalf("cell %s dispatched %d times; 4xx must not be retried", r.Cell.Key, r.Attempts)
		}
	}
	if hits.Load() != int64(len(cells)) {
		t.Fatalf("worker saw %d requests, want exactly %d", hits.Load(), len(cells))
	}
}

func TestCoordinatorDetectsKeyMismatch(t *testing.T) {
	m := metrics.New()
	w := fakeWorker(t, nil, func(_ http.ResponseWriter, cr *CellResponse) bool {
		cr.Key = "a-disagreeing-key" // version skew
		return true
	})
	c, err := New(Options{Workers: []string{w.URL}, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	out := collect(t, c, testCells(2))
	for _, r := range out {
		if r.Err == nil || !strings.Contains(r.Err.Error(), "key mismatch") {
			t.Fatalf("cell %s: err = %v, want key mismatch", r.Cell.Key, r.Err)
		}
	}
	if m.Snapshot().Counters["fabric.key_mismatch"] != 2 {
		t.Fatalf("key_mismatch counter = %d, want 2", m.Snapshot().Counters["fabric.key_mismatch"])
	}
}

func TestCoordinatorHonoursCancellation(t *testing.T) {
	// A worker that never answers within the test's patience: cancelling
	// the run context must end Run promptly with every cell accounted for.
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: net/http only watches for client
		// disconnects once the request body is consumed, and without that
		// this handler would outlive the cancelled dispatch.
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(stall.Close)
	m := metrics.New()
	c, err := New(Options{Workers: []string{stall.URL}, Lease: time.Minute, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cells := testCells(3)
	emitted := make(chan Result, len(cells))
	done := make(chan error, 1)
	go func() {
		done <- c.Run(ctx, Params{Instructions: 100, Warmup: 10, Seed: 1}, cells, sched.ConstCost(1), func(r Result) {
			emitted <- r
		})
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run returned nil after cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	close(emitted)
	n := 0
	for r := range emitted {
		n++
		if r.Err == nil {
			t.Errorf("cell %s reported success under cancellation", r.Cell.Key)
		}
	}
	if n != len(cells) {
		t.Fatalf("emitted %d results, want %d (cancelled cells must fail explicitly)", n, len(cells))
	}
	// The dispatches cancellation cut short say nothing about the worker.
	if n := m.Snapshot().Counters["fabric.workers.dead"]; n != 0 {
		t.Fatalf("workers.dead = %d after cancellation, want 0", n)
	}
}

func TestNewRejectsBadOptions(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New accepted an empty worker list")
	}
	if _, err := New(Options{Workers: []string{"localhost:8078"}}); err == nil {
		t.Fatal("New accepted a schemeless worker URL")
	}
}
