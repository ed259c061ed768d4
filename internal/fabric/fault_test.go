// Fault injection on the coordinator's retry path: a RoundTripper makes
// chosen dispatches fail as a transport error, a lease overrun, a
// truncated body or a 503, and the sweep must still land every cell with
// the fault-free result set.
package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
)

type fault int

const (
	faultNone fault = iota
	faultTransport
	faultLease
	faultTruncate
	fault503
	numFaults
)

// faultFor picks the fault of a cell's attempt from a hash of the cell
// key and the attempt number, so the faults are the same whichever
// worker or goroutine sends the dispatch. The last allowed attempt never
// faults, so every cell can complete.
func faultFor(key string, attempt, maxAttempts int) fault {
	if attempt >= maxAttempts {
		return faultNone
	}
	h := fnv.New32a()
	fmt.Fprintf(h, "%s#%d", key, attempt)
	return fault(h.Sum32() % uint32(numFaults))
}

// faultyTransport injects faultFor's faults into the dispatches it
// carries, counting each cell's attempts itself.
type faultyTransport struct {
	base        http.RoundTripper
	maxAttempts int

	mu       sync.Mutex
	attempts map[string]int
	injected [numFaults]int
}

func (ft *faultyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	_ = req.Body.Close()
	if err != nil {
		return nil, err
	}
	var cr CellRequest
	if err := json.Unmarshal(body, &cr); err != nil {
		return nil, err
	}
	key := keyFor(cr)
	ft.mu.Lock()
	ft.attempts[key]++
	f := faultFor(key, ft.attempts[key], ft.maxAttempts)
	ft.injected[f]++
	ft.mu.Unlock()

	switch f {
	case faultTransport:
		return nil, errors.New("injected: connection reset")
	case faultLease:
		<-req.Context().Done()
		return nil, req.Context().Err()
	case fault503:
		return &http.Response{
			Status: "503 Service Unavailable", StatusCode: http.StatusServiceUnavailable,
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: http.Header{}, Body: io.NopCloser(strings.NewReader("injected")), Request: req,
		}, nil
	}
	fwd := req.Clone(req.Context())
	fwd.Body = io.NopCloser(bytes.NewReader(body))
	resp, err := ft.base.RoundTrip(fwd)
	if err != nil || f != faultTruncate {
		return resp, err
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(data[:len(data)/2]))
	resp.ContentLength = -1
	resp.Header.Del("Content-Length")
	return resp, nil
}

func TestCoordinatorSurvivesInjectedFaults(t *testing.T) {
	const maxAttempts = 4
	cells := testCells(24)
	faults, want := 0, make(map[string]int, len(cells))
	for _, cell := range cells {
		a := 1
		for faultFor(cell.Key, a, maxAttempts) != faultNone {
			a++
		}
		want[cell.Key] = a
		faults += a - 1
	}

	w1, w2 := fakeWorker(t, nil, nil), fakeWorker(t, nil, nil)
	base := &http.Transport{}
	t.Cleanup(base.CloseIdleConnections)
	ft := &faultyTransport{base: base, maxAttempts: maxAttempts, attempts: map[string]int{}}
	m := metrics.New()
	c, err := New(Options{
		Workers:     []string{w1.URL, w2.URL},
		Lease:       250 * time.Millisecond,
		MaxAttempts: maxAttempts,
		DeadAfter:   faults + 1, // no worker may die of the injected faults
		Client:      &http.Client{Transport: ft},
		Metrics:     m,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := collect(t, c, cells)

	runs := make(map[string]stats.Run, len(out))
	for k, r := range out {
		if r.Err != nil {
			t.Fatalf("cell %s failed: %v", k, r.Err)
		}
		if r.Attempts != want[k] {
			t.Errorf("cell %s took %d attempts, want %d", k, r.Attempts, want[k])
		}
		runs[k] = r.Run
	}
	t.Logf("%d faults over %d cells; by kind (transport, lease, truncate, 503): %v", faults, len(cells), ft.injected[1:])
	for f := faultNone + 1; f < numFaults; f++ {
		if ft.injected[f] == 0 {
			t.Errorf("fault %d was never injected; the cell set does not exercise it", f)
		}
	}
	snap := m.Snapshot()
	if got := snap.Counters["fabric.cells.redealt"]; got != uint64(faults) {
		t.Errorf("cells.redealt = %d, want the %d faults injected", got, faults)
	}
	if n := snap.Counters["fabric.workers.dead"]; n != 0 {
		t.Errorf("workers.dead = %d, want 0", n)
	}

	clean, err := New(Options{Workers: []string{w1.URL, w2.URL}, Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	cleanRuns := make(map[string]stats.Run, len(cells))
	for k, r := range collect(t, clean, cells) {
		cleanRuns[k] = r.Run
	}
	if Fingerprint(runs) != Fingerprint(cleanRuns) {
		t.Fatal("the faulted sweep's fingerprint differs from the fault-free sweep's")
	}
}

func TestCoordinatorDispatchOrderIsCostThenKey(t *testing.T) {
	var mu sync.Mutex
	var order []string
	w := fakeWorker(t, nil, func(_ http.ResponseWriter, cr *CellResponse) bool {
		mu.Lock()
		order = append(order, cr.Key[:len("bench00")])
		mu.Unlock()
		return true
	})
	c, err := New(Options{Workers: []string{w.URL}, PerWorker: 1, Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells(6)
	for i, j := 0, len(cells)-1; i < j; i, j = i+1, j-1 {
		cells[i], cells[j] = cells[j], cells[i] // input order is not dispatch order
	}
	cost := func(bench string) uint64 {
		switch bench {
		case "bench02", "bench04":
			return 3
		case "bench05":
			return 2
		}
		return 1
	}
	err = c.Run(context.Background(), Params{Instructions: 100, Warmup: 10, Seed: 1}, cells, sched.CostModel(cost), func(r Result) {
		if r.Err != nil {
			t.Errorf("cell %s failed: %v", r.Cell.Key, r.Err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"bench02", "bench04", "bench05", "bench00", "bench01", "bench03"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("dispatch order %v, want cost descending then key ascending %v", order, want)
	}
}
