// End-to-end fabric tests: real Server instances as workers behind a
// real Coordinator, with runSim stubbed to a fast deterministic function
// of the cache key — so the determinism contract (sharded result set ==
// single-node result set, byte for byte) is assertable in milliseconds.
package server

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// fakeSimFor returns a runSim stub whose result is a pure function of
// the cell's cache key — identical on every node, distinct per cell —
// and counts invocations.
func fakeSimFor(sims *atomic.Int64) func(context.Context, *experiments.Params, string, config.Config) (stats.Run, error) {
	return func(_ context.Context, p *experiments.Params, bench string, cfg config.Config) (stats.Run, error) {
		key := p.CacheKey(bench, cfg)
		// Mirror the production path's store contract (experiments.RunSim):
		// probe the persistent store before simulating, fill it after.
		if p.Store != nil {
			if r, ok := p.Store.GetRun(key); ok {
				return r, nil
			}
		}
		if sims != nil {
			sims.Add(1)
		}
		sum := sha256.Sum256([]byte(key))
		n := binary.BigEndian.Uint64(sum[:8]) % 1_000_000
		r := stats.Run{
			Benchmark:    bench,
			Filter:       string(cfg.Filter.Kind),
			Instructions: uint64(p.Instructions),
			Cycles:       uint64(p.Instructions) + n,
			Prefetches:   stats.Prefetches{Issued: n, Good: n / 2, Bad: n / 3},
		}
		if p.Store != nil {
			p.Store.PutRun(key, r)
		}
		return r, nil
	}
}

// cluster is one coordinator in front of worker Servers sharing a CAS.
type cluster struct {
	coord     *Server
	coordTS   *httptest.Server
	workers   []*httptest.Server
	cas       *fabric.CAS
	sims      *atomic.Int64 // total stub simulations across all workers
	coordSims *atomic.Int64 // stub simulations on the coordinator itself (must stay 0)
}

// newCluster builds n stub-simulating workers and a coordinator dealing
// to them. Worker servers keep running until the test ends unless the
// test closes them explicitly.
func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	cl := &cluster{sims: new(atomic.Int64), coordSims: new(atomic.Int64)}
	m := metrics.New()
	var err error
	cl.cas, err = fabric.OpenCAS(t.TempDir(), m)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		ws := New(Config{CAS: cl.cas})
		ws.runSim = fakeSimFor(cl.sims)
		ts := httptest.NewServer(ws.Handler())
		t.Cleanup(ts.Close)
		cl.workers = append(cl.workers, ts)
		urls[i] = ts.URL
	}
	coord, err := fabric.New(fabric.Options{
		Workers: urls,
		CAS:     cl.cas,
		Lease:   10 * time.Second,
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.coord = New(Config{CAS: cl.cas, Coordinator: coord, Metrics: m})
	cl.coord.runSim = fakeSimFor(cl.coordSims)
	cl.coordTS = httptest.NewServer(cl.coord.Handler())
	t.Cleanup(cl.coordTS.Close)
	return cl
}

// sweepBody is a small three-benchmark, three-filter sweep (9 cells).
const sweepBody = `{"benchmarks":["mcf","gzip","gcc"],"instructions":1000,"seed":7}`

// standaloneFingerprint runs the same sweep on a fresh single-node
// server with the same stub and returns its fingerprint.
func standaloneFingerprint(t *testing.T, body string) (string, SweepResponse) {
	t.Helper()
	s, ts := newTestServer(t, Config{})
	s.runSim = fakeSimFor(nil)
	status, b := post(t, ts.URL, "/v1/sweep", body)
	if status != http.StatusOK {
		t.Fatalf("standalone sweep: status %d: %s", status, b)
	}
	var resp SweepResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Errors != 0 {
		t.Fatalf("standalone sweep reported %d errors", resp.Errors)
	}
	return resp.Fingerprint, resp
}

func TestFabricSweepMatchesStandalone(t *testing.T) {
	cl := newCluster(t, 2)
	status, b := post(t, cl.coordTS.URL, "/v1/sweep", sweepBody)
	if status != http.StatusOK {
		t.Fatalf("fabric sweep: status %d: %s", status, b)
	}
	var resp SweepResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Errors != 0 {
		t.Fatalf("fabric sweep reported %d errors: %s", resp.Errors, b)
	}
	if resp.Unique != 9 || len(resp.Results) != 9 {
		t.Fatalf("unique = %d, results = %d, want 9", resp.Unique, len(resp.Results))
	}
	for _, r := range resp.Results {
		if r.Source == "" || r.KeySHA == "" {
			t.Fatalf("result %s missing fabric provenance (source=%q key_sha=%q)", r.Name, r.Source, r.KeySHA)
		}
	}
	if cl.coordSims.Load() != 0 {
		t.Fatalf("coordinator simulated %d cells itself; it must only deal", cl.coordSims.Load())
	}
	if cl.sims.Load() != 9 {
		t.Fatalf("workers simulated %d cells, want 9", cl.sims.Load())
	}

	// The determinism contract: byte-identical to a single-node sweep.
	want, _ := standaloneFingerprint(t, sweepBody)
	if resp.Fingerprint != want {
		t.Fatalf("sharded fingerprint %s != standalone %s", resp.Fingerprint, want)
	}
}

func TestFabricRepeatSweepServedFromCAS(t *testing.T) {
	cl := newCluster(t, 2)
	status, b := post(t, cl.coordTS.URL, "/v1/sweep", sweepBody)
	if status != http.StatusOK {
		t.Fatalf("first sweep: status %d: %s", status, b)
	}
	var first SweepResponse
	if err := json.Unmarshal(b, &first); err != nil {
		t.Fatal(err)
	}
	simsAfterFirst := cl.sims.Load()

	status, b = post(t, cl.coordTS.URL, "/v1/sweep", sweepBody)
	if status != http.StatusOK {
		t.Fatalf("repeat sweep: status %d: %s", status, b)
	}
	var second SweepResponse
	if err := json.Unmarshal(b, &second); err != nil {
		t.Fatal(err)
	}
	if second.CASHits != second.Unique {
		t.Fatalf("repeat sweep: cas_hits = %d, want %d (every cell)", second.CASHits, second.Unique)
	}
	if got := cl.sims.Load(); got != simsAfterFirst {
		t.Fatalf("repeat sweep simulated %d new cells, want 0", got-simsAfterFirst)
	}
	if second.Fingerprint != first.Fingerprint {
		t.Fatal("CAS-served sweep fingerprint differs from the simulated one")
	}
	for _, r := range second.Results {
		if r.Source != "cas" {
			t.Fatalf("repeat sweep cell %s source = %q, want cas", r.Name, r.Source)
		}
	}
}

func TestFabricSurvivesWorkerDeath(t *testing.T) {
	cl := newCluster(t, 2)
	// Kill worker 0 before the sweep: every cell dealt to it is a
	// transport failure the coordinator must re-deal to worker 1.
	cl.workers[0].Close()

	status, b := post(t, cl.coordTS.URL, "/v1/sweep", sweepBody)
	if status != http.StatusOK {
		t.Fatalf("sweep with dead worker: status %d: %s", status, b)
	}
	var resp SweepResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Errors != 0 {
		t.Fatalf("sweep with dead worker reported %d errors: %s", resp.Errors, b)
	}
	for _, r := range resp.Results {
		if r.Source != cl.workers[1].URL {
			t.Fatalf("cell %s source = %q, want the surviving worker %s", r.Name, r.Source, cl.workers[1].URL)
		}
	}
	want, _ := standaloneFingerprint(t, sweepBody)
	if resp.Fingerprint != want {
		t.Fatalf("post-death fingerprint %s != standalone %s", resp.Fingerprint, want)
	}
}

func TestCellEndpointExecuteAndFill(t *testing.T) {
	m := metrics.New()
	cas, err := fabric.OpenCAS(t.TempDir(), m)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{CAS: cas, Metrics: m})
	s.runSim = fakeSimFor(nil)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	cfg := config.Default8K()
	body, err := json.Marshal(fabric.CellRequest{Bench: "mcf", Config: &cfg, Instructions: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Execute mode: first call simulates...
	status, b := post(t, ts.URL, "/v1/cell", string(body))
	if status != http.StatusOK {
		t.Fatalf("cell execute: status %d: %s", status, b)
	}
	var cr fabric.CellResponse
	if err := json.Unmarshal(b, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Run == nil || cr.Source != "sim" || cr.KeySHA != fabric.KeySHA(cr.Key) {
		t.Fatalf("cell execute: %+v, want a simulated run with a consistent address", cr)
	}

	// ...and the second answers from the CAS without executing.
	status, b = post(t, ts.URL, "/v1/cell", string(body))
	if status != http.StatusOK {
		t.Fatalf("cell re-execute: status %d: %s", status, b)
	}
	var cr2 fabric.CellResponse
	if err := json.Unmarshal(b, &cr2); err != nil {
		t.Fatal(err)
	}
	if cr2.Source != "cas" || cr2.Key != cr.Key {
		t.Fatalf("cell re-execute: source=%q key match=%v, want a CAS hit for the same key", cr2.Source, cr2.Key == cr.Key)
	}

	// GET by content address round-trips the envelope.
	status, b = get(t, ts.URL, "/v1/cell?sha="+cr.KeySHA)
	if status != http.StatusOK {
		t.Fatalf("cell get: status %d: %s", status, b)
	}
	var got fabric.CellResponse
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Key != cr.Key || got.Run == nil {
		t.Fatalf("cell get = %+v, want the stored envelope for %s", got, cr.Key)
	}

	// Fill mode inserts a foreign result without simulating.
	cfg16 := config.Default16K()
	fill := fabric.CellRequest{Bench: "gzip", Config: &cfg16, Instructions: 500, Seed: 9, Run: &stats.Run{Benchmark: "gzip", Instructions: 500, Cycles: 700}}
	fb, err := json.Marshal(fill)
	if err != nil {
		t.Fatal(err)
	}
	status, b = post(t, ts.URL, "/v1/cell", string(fb))
	if status != http.StatusOK {
		t.Fatalf("cell fill: status %d: %s", status, b)
	}
	var fr fabric.CellResponse
	if err := json.Unmarshal(b, &fr); err != nil {
		t.Fatal(err)
	}
	if run, ok := cas.GetRun(fr.Key); !ok || run.Cycles != 700 {
		t.Fatalf("filled entry not readable from the CAS (ok=%v run=%+v)", ok, run)
	}

	// Errors: bad sha length, unknown sha, non-hex sha, unknown benchmark.
	if status, _ := get(t, ts.URL, "/v1/cell?sha=abc"); status != http.StatusBadRequest {
		t.Fatalf("short sha: status %d, want 400", status)
	}
	if status, _ := get(t, ts.URL, "/v1/cell?sha="+strings.Repeat("0", 64)); status != http.StatusNotFound {
		t.Fatalf("unknown sha: status %d, want 404", status)
	}
	// A 64-char address that is a path out of the store is not an address.
	if status, _ := get(t, ts.URL, "/v1/cell?sha=..%2F..%2F"+strings.Repeat("x", 58)); status != http.StatusBadRequest {
		t.Fatalf("path-shaped sha: status %d, want 400", status)
	}
	if status, _ := post(t, ts.URL, "/v1/cell", `{"bench":"nope","config":`+mustJSON(t, cfg)+`}`); status != http.StatusBadRequest {
		t.Fatalf("unknown benchmark: status %d, want 400", status)
	}

	// A config naming an unregistered kind or the static filter (which
	// needs a profiling run no worker makes), or sizing a table past the
	// bound, is refused in both modes: nothing runs and nothing is filled.
	for name, mutate := range map[string]func(*config.Config){
		"unknown filter":          func(c *config.Config) { c.Filter.Kind = "magic" },
		"static filter":           func(c *config.Config) { *c = c.WithFilter(config.FilterStatic) },
		"unknown tournament side": func(c *config.Config) { c.Filter.TournamentA = "magic" },
		"unknown iprefetcher":     func(c *config.Config) { *c = c.WithIPrefetch("magic") },
		"oversized table":         func(c *config.Config) { c.Filter.TableEntries = 1 << 40 },
	} {
		bad := config.Default8K()
		mutate(&bad)
		for _, run := range []*stats.Run{nil, {Benchmark: "mcf", Instructions: 1000, Cycles: 1}} {
			req := fabric.CellRequest{Bench: "mcf", Config: &bad, Instructions: 1000, Run: run}
			if status, b := post(t, ts.URL, "/v1/cell", mustJSON(t, req)); status != http.StatusBadRequest {
				t.Errorf("%s (fill=%v): status %d, want 400: %s", name, run != nil, status, b)
			}
		}
	}
	if fills := m.Counter("server.cell.fills").Value(); fills != 1 {
		t.Errorf("server.cell.fills = %d, want only the one valid fill", fills)
	}
}

func TestCellEndpointWithoutCAS(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.runSim = fakeSimFor(nil)
	if status, _ := get(t, ts.URL, "/v1/cell?sha="+strings.Repeat("0", 64)); status != http.StatusNotImplemented {
		t.Fatalf("GET without CAS: status %d, want 501", status)
	}
	cfg := config.Default8K()
	fill := fabric.CellRequest{Bench: "mcf", Config: &cfg, Run: &stats.Run{}}
	fb, err := json.Marshal(fill)
	if err != nil {
		t.Fatal(err)
	}
	if status, _ := post(t, ts.URL, "/v1/cell", string(fb)); status != http.StatusNotImplemented {
		t.Fatalf("fill without CAS: status %d, want 501", status)
	}
	// Execute mode still works — no store, it just simulates.
	body, err := json.Marshal(fabric.CellRequest{Bench: "mcf", Config: &cfg, Instructions: 1000})
	if err != nil {
		t.Fatal(err)
	}
	status, b := post(t, ts.URL, "/v1/cell", string(body))
	if status != http.StatusOK {
		t.Fatalf("execute without CAS: status %d: %s", status, b)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSweepStreaming(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.runSim = fakeSimFor(nil)

	body := `{"benchmarks":["mcf","gzip"],"instructions":1000,"seed":7,"stream":true}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streaming sweep: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}

	var results []RunResult
	var summary *SweepResponse
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch line.Type {
		case "result":
			if summary != nil {
				t.Fatal("result line after the summary line")
			}
			if line.Result == nil {
				t.Fatal("result line without a result")
			}
			results = append(results, *line.Result)
		case "summary":
			if line.Summary == nil {
				t.Fatal("summary line without a summary")
			}
			summary = line.Summary
		default:
			t.Fatalf("unknown line type %q", line.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if summary == nil {
		t.Fatal("stream ended without a summary line")
	}
	if len(results) != 6 || summary.Unique != 6 || summary.Errors != 0 {
		t.Fatalf("streamed %d results, summary unique=%d errors=%d; want 6/6/0", len(results), summary.Unique, summary.Errors)
	}
	if len(summary.Results) != 0 {
		t.Fatal("summary line duplicates the results array")
	}

	// The stream and the buffered path agree byte for byte.
	want, buffered := standaloneFingerprint(t, `{"benchmarks":["mcf","gzip"],"instructions":1000,"seed":7}`)
	if summary.Fingerprint != want {
		t.Fatalf("streamed fingerprint %s != buffered %s", summary.Fingerprint, want)
	}
	if len(buffered.Results) != len(results) {
		t.Fatalf("streamed %d results, buffered %d", len(results), len(buffered.Results))
	}
}

func TestSweepStreamingCancellation(t *testing.T) {
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, MaxConcurrent: 1})
	s.runSim = blockingRunner(entered, release)

	ctx, cancel := context.WithCancel(context.Background())
	body := `{"benchmarks":["mcf","gzip","gcc"],"stream":true}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Wait for the first simulation to start, then cancel the request
	// mid-stream. The handler (and the sweep behind it) must unwind:
	// Drain must complete, i.e. no goroutine is stuck writing to a dead
	// client.
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no simulation started")
	}
	cancel()
	close(release)

	drainCtx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	s.BeginDrain()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("server did not drain after client cancellation: %v", err)
	}
}
