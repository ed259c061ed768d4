// Cell-loop tests: what the daemon's memory admits and answers, in front
// of a real on-disk store, with a stub compute step that counts its
// calls. The TestCASTier* names keep the behaviours they pinned when the
// memory sat inside the CAS.
package fabric

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
)

// loopRig is one daemon's cell loop: its memory, its store and registry,
// and a compute step that counts its calls and disk reads.
type loopRig struct {
	memo     *sched.Memo[stats.Run]
	cas      *CAS
	m        *metrics.Registry
	computes atomic.Int64
	reads    atomic.Int64
	// compute, when set, replaces the default step, which answers
	// runFor(key) at once.
	compute func(ctx context.Context, cell *Cell) Result
}

func newLoopRig(t *testing.T) *loopRig {
	t.Helper()
	cas, m := openTestCAS(t)
	r := &loopRig{memo: NewMemo(), cas: cas, m: m}
	read := cas.readFile
	cas.readFile = func(name string) ([]byte, error) {
		r.reads.Add(1)
		return read(name)
	}
	return r
}

// batch runs cells through the loop and returns their results in
// emission order.
func (r *loopRig) batch(ctx context.Context, t *testing.T, cells ...Cell) []Result {
	t.Helper()
	loop := Loop{Memo: r.memo, CAS: r.cas, Slots: 2, Metrics: r.m,
		Compute: func(ctx context.Context, cell *Cell) Result {
			r.computes.Add(1)
			if r.compute != nil {
				return r.compute(ctx, cell)
			}
			return Result{Cell: *cell, Run: runFor(cell.Key)}
		}}
	var out []Result
	if _, err := loop.Run(ctx, cells, sched.ConstCost(1), func(res Result) { out = append(out, res) }); err != ctx.Err() {
		t.Errorf("Run: %v", err)
	}
	return out
}

// one runs a single-cell batch and checks its result's source and run.
func (r *loopRig) one(t *testing.T, cell Cell, source string, want stats.Run) {
	t.Helper()
	out := r.batch(context.Background(), t, cell)
	if len(out) != 1 || out[0].Err != nil || out[0].Source != source || !reflect.DeepEqual(out[0].Run, want) {
		t.Fatalf("batch of %s = %+v, want source %q and %+v", cell.Key, out, source, want)
	}
}

func (r *loopRig) counter(name string) uint64 { return r.m.Snapshot().Counters[name] }

// TestCASTierServesVerifiedRead: a verified disk read is admitted to the
// memory, which answers the key after its file is deleted without
// reading the disk again.
func TestCASTierServesVerifiedRead(t *testing.T) {
	r := newLoopRig(t)
	cell := testCells(1)[0]
	// Another process stored the entry.
	other, err := OpenCAS(r.cas.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Put(cell.Key, testRun(9)); err != nil {
		t.Fatal(err)
	}
	r.one(t, cell, "cas", testRun(9))
	if err := os.Remove(r.cas.path(KeySHA(cell.Key))); err != nil {
		t.Fatal(err)
	}
	r.one(t, cell, "cas", testRun(9))
	if n := r.computes.Load(); n != 0 {
		t.Fatalf("%d computes, want 0", n)
	}
	if n := r.reads.Load(); n != 1 {
		t.Fatalf("%d disk reads, want 1: the memory answers the repeat", n)
	}
	if h, e := r.counter("fabric.cas.hits"), r.counter("fabric.cas.errors"); h != 2 || e != 0 {
		t.Fatalf("fabric.cas.hits = %d, errors = %d; want 2 and 0", h, e)
	}
}

// TestCASPutAdmitsNothing: a result stored only through CAS.Put (the
// /v1/cell fill mode) is not admitted to the memory, so once its file is
// gone the cell computes; a computed result is admitted and answers
// after its file is gone.
func TestCASPutAdmitsNothing(t *testing.T) {
	r := newLoopRig(t)
	cell := testCells(1)[0]
	path := r.cas.path(KeySHA(cell.Key))
	if err := r.cas.Put(cell.Key, testRun(3)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	r.one(t, cell, "", runFor(cell.Key))
	if err := os.Remove(path); err != nil {
		t.Fatalf("the compute did not fill the store: %v", err)
	}
	r.one(t, cell, "cas", runFor(cell.Key))
	if n := r.computes.Load(); n != 1 {
		t.Fatalf("%d computes, want 1", n)
	}
}

// TestCASTierRefusesBadEntries: a corrupt entry, or one holding another
// key, is refused, counted in fabric.cas.errors, and never admitted: the
// cell computes, its result replaces the entry, and the memory answers
// with the computed run.
func TestCASTierRefusesBadEntries(t *testing.T) {
	other, err := json.Marshal(envelope{Key: "some-other-key", Run: testRun(2)})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"corrupt": []byte(`{"key":`), "other key": other} {
		t.Run(name, func(t *testing.T) {
			r := newLoopRig(t)
			cell := testCells(1)[0]
			path := r.cas.path(KeySHA(cell.Key))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			r.one(t, cell, "", runFor(cell.Key))
			if got, ok, err := r.cas.Get(cell.Key); !ok || err != nil || !reflect.DeepEqual(got, runFor(cell.Key)) {
				t.Fatalf("store after the compute: %+v ok=%v err=%v, want the computed run", got, ok, err)
			}
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			r.one(t, cell, "cas", runFor(cell.Key))
			if n := r.computes.Load(); n != 1 {
				t.Fatalf("%d computes, want 1", n)
			}
			if n := r.counter("fabric.cas.errors"); n != 1 {
				t.Fatalf("fabric.cas.errors = %d, want 1", n)
			}
		})
	}
}

// TestCASTierHitChecksKey: the memory answers only the exact cell key. A
// cell that differs from a remembered one in its key alone (here its
// seed segment) computes its own result.
func TestCASTierHitChecksKey(t *testing.T) {
	r := newLoopRig(t)
	a := testCells(1)[0]
	b := a
	b.Key = "bench00|n=100|w=10|seed=2|{}"
	r.one(t, a, "", runFor(a.Key))
	r.one(t, b, "", runFor(b.Key))
	r.one(t, a, "cas", runFor(a.Key))
	r.one(t, b, "cas", runFor(b.Key))
	if n := r.computes.Load(); n != 2 {
		t.Fatalf("%d computes, want one per key (2)", n)
	}
}

// TestCASConcurrentGetsReadOnce: identical batches racing on a cold
// memory compute once and ask the disk once; every other batch shares
// that computation and reports it as a "cas" hit.
func TestCASConcurrentGetsReadOnce(t *testing.T) {
	r := newLoopRig(t)
	cell := testCells(1)[0]
	release := make(chan struct{})
	r.compute = func(_ context.Context, cell *Cell) Result {
		<-release
		return Result{Cell: *cell, Run: runFor(cell.Key)}
	}
	const batches = 8
	var wg sync.WaitGroup
	sources := make([]string, batches)
	for i := range sources {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := r.batch(context.Background(), t, cell)
			if len(out) != 1 || out[0].Err != nil || !reflect.DeepEqual(out[0].Run, runFor(cell.Key)) {
				t.Errorf("batch %d: %+v", i, out)
				return
			}
			sources[i] = out[0].Source
		}(i)
	}
	// Let the batches pile onto the computation, then release it. The
	// pause only makes the overlap likely: a batch that starts after the
	// computation completes is a memory hit, so one compute is right
	// either way.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := r.computes.Load(); n != 1 {
		t.Fatalf("%d computes for %d concurrent batches, want 1", n, batches)
	}
	hits := 0
	for _, s := range sources {
		if s == "cas" {
			hits++
		}
	}
	if hits != batches-1 || r.counter("fabric.cas.hits") != batches-1 {
		t.Fatalf("%d cas sources, fabric.cas.hits = %d; want %d of each", hits, r.counter("fabric.cas.hits"), batches-1)
	}
	if n := r.counter("fabric.cas.misses"); n != 1 {
		t.Fatalf("the disk was asked %d times, want once", n)
	}
}

// TestLoopShareOfCancelledBatchRecomputes: a batch waiting on another
// batch's computation does not inherit that batch's cancellation; it
// computes the cell itself.
func TestLoopShareOfCancelledBatchRecomputes(t *testing.T) {
	r := newLoopRig(t)
	cell := testCells(1)[0]
	started := make(chan struct{})
	r.compute = func(ctx context.Context, cell *Cell) Result {
		if r.computes.Load() == 1 {
			close(started)
			<-ctx.Done()
			return Result{Cell: *cell, Err: ctx.Err()}
		}
		return Result{Cell: *cell, Run: runFor(cell.Key)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	first := make(chan []Result)
	go func() { first <- r.batch(ctx, t, cell) }()
	<-started
	second := make(chan []Result)
	go func() { second <- r.batch(context.Background(), t, cell) }()
	time.Sleep(20 * time.Millisecond) // the second batch waits on the first's computation
	cancel()
	if out := <-first; len(out) != 1 || out[0].Err == nil {
		t.Fatalf("cancelled batch: %+v, want a failure", out)
	}
	if out := <-second; len(out) != 1 || out[0].Err != nil || out[0].Source != "" || !reflect.DeepEqual(out[0].Run, runFor(cell.Key)) {
		t.Fatalf("second batch: %+v, want its own computed run", out)
	}
	if n := r.computes.Load(); n != 2 {
		t.Fatalf("%d computes, want 2", n)
	}
}

// TestLoopHitPassNeverWaits: a batch emits the cells the memory holds
// at once, even when an earlier cell of the batch is in flight in
// another batch; only that cell's job waits for the computation.
func TestLoopHitPassNeverWaits(t *testing.T) {
	r := newLoopRig(t)
	cells := testCells(2) // bench00 will be in flight elsewhere; bench01 is remembered
	r.one(t, cells[1], "", runFor(cells[1].Key))
	release, started := make(chan struct{}), make(chan struct{})
	r.compute = func(_ context.Context, cell *Cell) Result {
		close(started)
		<-release
		return Result{Cell: *cell, Run: runFor(cell.Key)}
	}
	other := make(chan []Result)
	go func() { other <- r.batch(context.Background(), t, cells[0]) }()
	<-started

	// One slot: a hit pass that waited on bench00 would hold back bench01.
	loop := Loop{Memo: r.memo, Slots: 1, Metrics: r.m,
		Compute: func(context.Context, *Cell) Result { t.Error("the second batch computed"); return Result{} }}
	emitted := make(chan Result, len(cells))
	done := make(chan error)
	go func() {
		_, err := loop.Run(context.Background(), cells, sched.ConstCost(1), func(res Result) { emitted <- res })
		done <- err
	}()
	select {
	case res := <-emitted:
		if res.Cell.Key != cells[1].Key || res.Source != "cas" {
			t.Fatalf("first result %s from %q, want the remembered %s from cas", res.Cell.Key, res.Source, cells[1].Key)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the remembered cell waited on another batch's computation")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if res := <-emitted; res.Cell.Key != cells[0].Key || res.Source != "cas" || res.Err != nil {
		t.Fatalf("shared cell: %+v, want %s from cas", res, cells[0].Key)
	}
	if out := <-other; len(out) != 1 || out[0].Source != "" {
		t.Fatalf("computing batch: %+v", out)
	}
}
