// Fault injection on the fabric's retry path, against real workers: a
// RoundTripper between a coordinator and its server.New workers makes
// chosen dispatches fail as a transport error, a lease overrun, a
// truncated body or a 503, or delivers them twice. The sweep must still
// land every cell with the fault-free result set, and the workers'
// simulation counts must account for every fault.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

type fault int

const (
	faultNone fault = iota
	faultTransport
	faultLease
	faultTruncate
	fault503
	faultDuplicate
	numFaults
)

// reaches reports whether a dispatch under f is delivered to its worker,
// which then answers it.
func (f fault) reaches() bool { return f == faultNone || f == faultTruncate || f == faultDuplicate }

// retried reports whether the coordinator must deal the cell again.
func (f fault) retried() bool { return f != faultNone && f != faultDuplicate }

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
	var cr fabric.CellRequest
	if err := json.Unmarshal(body, &cr); err != nil {
		return nil, err
	}
	p := experiments.Params{Instructions: cr.Instructions, Warmup: *cr.Warmup, Seed: cr.Seed}
	key := p.CacheKey(cr.Bench, *cr.Config)
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
	forward := func() (*http.Response, error) {
		fwd := req.Clone(req.Context())
		fwd.Body = io.NopCloser(bytes.NewReader(body))
		return ft.base.RoundTrip(fwd)
	}
	resp, err := forward()
	if err != nil || f == faultNone {
		return resp, err
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if f == faultDuplicate {
		// The worker has answered the first delivery; the coordinator
		// reads its answer to the second.
		return forward()
	}
	resp.Body = io.NopCloser(bytes.NewReader(data[:len(data)/2]))
	resp.ContentLength = -1
	resp.Header.Del("Content-Length")
	return resp, nil
}

// TestCoordinatorSurvivesInjectedFaults runs a sweep through the fault
// transport to two workers, each with a CAS of its own. A retry always
// goes to the other worker, so a cell's attempts alternate between them.
// A worker simulates a cell once, on the first delivery that reaches it:
// a duplicated delivery, or a retry that comes back to a worker that has
// answered the cell, is served from that worker's CAS. So each key is
// simulated once, plus once more when a fault that struck after a
// worker had answered sent the cell on to the worker that had not.
func TestCoordinatorSurvivesInjectedFaults(t *testing.T) {
	const maxAttempts = 4
	p := experiments.Params{Instructions: 1000, Warmup: 100, Seed: 1}
	var cells []fabric.Cell
	for _, kind := range []config.FilterKind{config.FilterNone, config.FilterPA, config.FilterPC} {
		cfg := config.Default().WithFilter(kind)
		for _, bench := range workload.PaperNames() {
			cells = append(cells, fabric.Cell{Key: p.CacheKey(bench, cfg), Bench: bench, Config: cfg})
		}
	}
	retries, attempts, wantSims := 0, make(map[string]int, len(cells)), make(map[string]int, len(cells))
	for _, cell := range cells {
		var reached [2]bool
		a := 1
		for ; ; a++ {
			f := faultFor(cell.Key, a, maxAttempts)
			reached[a%2] = reached[a%2] || f.reaches()
			if !f.retried() {
				break
			}
		}
		attempts[cell.Key], retries = a, retries+a-1
		for _, r := range reached {
			if r {
				wantSims[cell.Key]++
			}
		}
	}

	var simMu sync.Mutex
	sims := make(map[string]int, len(cells))
	stub := fakeSimFor(nil)
	urls := make([]string, 2)
	for i := range urls {
		cas, err := fabric.OpenCAS(t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		ws := New(Config{CAS: cas})
		ws.runSim = func(ctx context.Context, p *experiments.Params, bench string, cfg config.Config) (stats.Run, error) {
			simMu.Lock()
			sims[p.CacheKey(bench, cfg)]++
			simMu.Unlock()
			return stub(ctx, p, bench, cfg)
		}
		ts := httptest.NewServer(ws.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	base := &http.Transport{}
	t.Cleanup(base.CloseIdleConnections)
	ft := &faultyTransport{base: base, maxAttempts: maxAttempts, attempts: map[string]int{}}
	m := metrics.New()
	c, err := fabric.New(fabric.Options{
		Workers:     urls,
		Lease:       250 * time.Millisecond,
		MaxAttempts: maxAttempts,
		DeadAfter:   retries + 1, // no worker may die of the injected faults
		Client:      &http.Client{Transport: ft},
		Metrics:     m,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]fabric.Result, len(cells))
	fp := fabric.Params{Instructions: p.Instructions, Warmup: p.Warmup, Seed: p.Seed}
	if err := c.Run(context.Background(), fp, cells, sched.ConstCost(1), func(r fabric.Result) { out[r.Cell.Key] = r }); err != nil {
		t.Fatal(err)
	}

	runs, want := make(map[string]stats.Run, len(cells)), make(map[string]stats.Run, len(cells))
	simMu.Lock()
	defer simMu.Unlock()
	for _, cell := range cells {
		r := out[cell.Key]
		if r.Err != nil {
			t.Fatalf("cell %s failed: %v", cell.Key, r.Err)
		}
		if r.Attempts != attempts[cell.Key] {
			t.Errorf("cell %s/%s took %d attempts, want %d", cell.Bench, cell.Config.Filter.Kind, r.Attempts, attempts[cell.Key])
		}
		if sims[cell.Key] != wantSims[cell.Key] {
			t.Errorf("cell %s/%s simulated %d times, want %d", cell.Bench, cell.Config.Filter.Kind, sims[cell.Key], wantSims[cell.Key])
		}
		runs[cell.Key] = r.Run
		if want[cell.Key], err = stub(context.Background(), &p, cell.Bench, cell.Config); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d retries over %d cells; by kind (transport, lease, truncate, 503, duplicate): %v", retries, len(cells), ft.injected[1:])
	for f := faultNone + 1; f < numFaults; f++ {
		if ft.injected[f] == 0 {
			t.Errorf("fault %d was never injected; the cell set does not exercise it", f)
		}
	}
	snap := m.Snapshot()
	if got := snap.Counters["fabric.cells.redealt"]; got != uint64(retries) {
		t.Errorf("cells.redealt = %d, want the %d retryable faults injected", got, retries)
	}
	if n := snap.Counters["fabric.workers.dead"]; n != 0 {
		t.Errorf("workers.dead = %d, want 0", n)
	}
	if fabric.Fingerprint(runs) != fabric.Fingerprint(want) {
		t.Fatal("the faulted sweep's fingerprint differs from the fault-free results'")
	}
}
