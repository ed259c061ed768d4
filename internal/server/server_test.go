package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/stats"
)

// newTestServer starts an httptest server around a Server built from cfg.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and returns status + response body.
func post(t *testing.T, base, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read body: %v", path, err)
	}
	return resp.StatusCode, b
}

func get(t *testing.T, base, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, b
}

// blockingRunner returns a runSim stub that signals entry and blocks
// until released (or the context expires).
func blockingRunner(entered chan<- struct{}, release <-chan struct{}) func(context.Context, *experiments.Params, string, config.Config) (stats.Run, error) {
	return func(ctx context.Context, _ *experiments.Params, _ string, _ config.Config) (stats.Run, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		select {
		case <-release:
			return stats.Run{Instructions: 1, Cycles: 1}, nil
		case <-ctx.Done():
			return stats.Run{}, ctx.Err()
		}
	}
}

func TestHandlerTable(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSweepJobs: 4, MaxInstructions: 1000})
	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantInBody               string
	}{
		{"bad json", "POST", "/v1/run", `{not json`, 400, "bad request body"},
		{"empty body", "POST", "/v1/run", ``, 400, "bad request body"},
		{"trailing garbage", "POST", "/v1/run", `{"benchmark":"mcf"} extra`, 400, "trailing data"},
		{"unknown field", "POST", "/v1/run", `{"benchmark":"mcf","bogus_field":1}`, 400, "bad request body"},
		{"missing benchmark", "POST", "/v1/run", `{}`, 400, "benchmark"},
		{"unknown benchmark", "POST", "/v1/run", `{"benchmark":"not-a-benchmark"}`, 400, "unknown benchmark"},
		{"unknown filter", "POST", "/v1/run", `{"benchmark":"mcf","filter":"bogus"}`, 400, "unknown filter"},
		{"bad cache size", "POST", "/v1/run", `{"benchmark":"mcf","cache_kb":13}`, 400, "cache_kb"},
		{"bad table entries", "POST", "/v1/run", `{"benchmark":"mcf","table_entries":100}`, 400, "power of two"},
		{"instructions cap", "POST", "/v1/run", `{"benchmark":"mcf","instructions":2000}`, 400, "cap"},
		{"run wrong method", "GET", "/v1/run", ``, 405, ""},
		{"sweep bad json", "POST", "/v1/sweep", `[1,2`, 400, "bad request body"},
		{"sweep unknown benchmark", "POST", "/v1/sweep", `{"benchmarks":["nope"]}`, 400, "unknown benchmark"},
		{"sweep unknown filter", "POST", "/v1/sweep", `{"benchmarks":["mcf"],"filters":["bogus"]}`, 400, "unknown filter"},
		{"oversized sweep", "POST", "/v1/sweep", `{}`, 413, "cap is 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var status int
			var body []byte
			switch tc.method {
			case "POST":
				status, body = post(t, ts.URL, tc.path, tc.body)
			default:
				status, body = get(t, ts.URL, tc.path)
			}
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", status, tc.wantStatus, body)
			}
			if tc.wantInBody != "" && !strings.Contains(string(body), tc.wantInBody) {
				t.Fatalf("body %q missing %q", body, tc.wantInBody)
			}
		})
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if status, body := get(t, ts.URL, "/healthz"); status != 200 || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz = %d %q", status, body)
	}
	status, body := get(t, ts.URL, "/metrics")
	if status != 200 {
		t.Fatalf("metrics = %d", status)
	}
	for _, want := range []string{"# TYPE", "server_queue_depth"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, body)
		}
	}
}

func TestBackpressure(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{QueueDepth: 1, MaxConcurrent: 1, Workers: 1, RetryAfter: 3 * time.Second})
	s.runSim = blockingRunner(entered, release)

	// Request 1 occupies the only admission slot.
	first := make(chan int, 1)
	go func() {
		status, _ := post(t, ts.URL, "/v1/run", `{"benchmark":"mcf"}`)
		first <- status
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the runner")
	}

	// The queue is full: the next request must bounce with 429.
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(`{"benchmark":"mcf"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status = %d (body %s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}

	// Release: the in-flight request completes and the queue drains.
	close(release)
	if status := <-first; status != 200 {
		t.Fatalf("in-flight request after drain: status = %d", status)
	}
	if status, body := post(t, ts.URL, "/v1/run", `{"benchmark":"mcf"}`); status != 200 {
		t.Fatalf("post-drain request: status = %d (body %s)", status, body)
	}

	// The rejection is visible in /metrics.
	if _, body := get(t, ts.URL, "/metrics"); !strings.Contains(string(body), "server_rejected_backpressure 1") {
		t.Fatalf("metrics missing backpressure rejection:\n%s", body)
	}
}

func TestGracefulDrain(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{QueueDepth: 4, MaxConcurrent: 2, Workers: 1})
	s.runSim = blockingRunner(entered, release)

	first := make(chan int, 1)
	go func() {
		status, _ := post(t, ts.URL, "/v1/run", `{"benchmark":"mcf"}`)
		first <- status
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the runner")
	}

	s.BeginDrain()

	// New work is refused while draining...
	if status, _ := post(t, ts.URL, "/v1/run", `{"benchmark":"mcf"}`); status != http.StatusServiceUnavailable {
		t.Fatalf("draining run: status = %d, want 503", status)
	}
	if status, _ := post(t, ts.URL, "/v1/sweep", `{"benchmarks":["mcf"]}`); status != http.StatusServiceUnavailable {
		t.Fatalf("draining sweep: status = %d, want 503", status)
	}
	if status, _ := get(t, ts.URL, "/healthz"); status != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status = %d, want 503", status)
	}

	// ...but the in-flight request completes with its full response.
	close(release)
	if status := <-first; status != 200 {
		t.Fatalf("in-flight request during drain: status = %d", status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestDeadlineExpiresInFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 2, MaxConcurrent: 1, Workers: 1})
	// Runner blocks until the request context expires.
	s.runSim = blockingRunner(make(chan struct{}, 1), nil)

	status, body := post(t, ts.URL, "/v1/run", `{"benchmark":"mcf","deadline_ms":50}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("expired request: status = %d (body %s)", status, body)
	}
}

func TestDeadlineExpiresWhileQueued(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{QueueDepth: 4, MaxConcurrent: 1, Workers: 1})
	s.runSim = blockingRunner(entered, release)
	defer close(release)

	first := make(chan int, 1)
	go func() {
		status, _ := post(t, ts.URL, "/v1/run", `{"benchmark":"mcf"}`)
		first <- status
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the runner")
	}

	// The execution token is held; a short-deadline request admitted
	// behind it must expire in the queue, not hang.
	status, body := post(t, ts.URL, "/v1/run", `{"benchmark":"mcf","deadline_ms":50}`)
	if status != http.StatusGatewayTimeout || !strings.Contains(string(body), "queued") {
		t.Fatalf("queued-past-deadline: status = %d (body %s)", status, body)
	}
}

// TestConcurrentIdenticalRunsShareOneSimulation is the end-to-end
// acceptance check: two concurrent identical /v1/run requests perform
// ONE simulation, and the share is visible in /metrics.
func TestConcurrentIdenticalRunsShareOneSimulation(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 8, MaxConcurrent: 2, Workers: 2})
	// A seed no other test uses keeps the process-wide memo cold for
	// this key.
	req := `{"benchmark":"fpppp","instructions":30000,"warmup":10000,"seed":990077}`

	var wg sync.WaitGroup
	cycles := make([]uint64, 2)
	for i := range cycles {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			status, body := post(t, ts.URL, "/v1/run", req)
			if status != 200 {
				t.Errorf("request %d: status = %d (body %s)", slot, status, body)
				return
			}
			var resp RunResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Errorf("request %d: %v", slot, err)
				return
			}
			if resp.Result.Run == nil || resp.Result.Run.Cycles == 0 {
				t.Errorf("request %d: empty run payload: %s", slot, body)
				return
			}
			cycles[slot] = resp.Result.Run.Cycles
		}(i)
	}
	wg.Wait()
	if cycles[0] != cycles[1] {
		t.Fatalf("identical requests disagree: %d vs %d cycles", cycles[0], cycles[1])
	}

	_, body := get(t, ts.URL, "/metrics")
	if !strings.Contains(string(body), "experiments_cache_misses 1") {
		t.Fatalf("expected exactly one simulation; /metrics:\n%s", grepLines(body, "experiments_cache"))
	}
	if !strings.Contains(string(body), "experiments_cache_shared 1") {
		t.Fatalf("memo share not visible; /metrics:\n%s", grepLines(body, "experiments_cache"))
	}
}

// grepLines filters exposition output for readable failure messages.
func grepLines(b []byte, substr string) string {
	var out bytes.Buffer
	for _, line := range strings.Split(string(b), "\n") {
		if strings.Contains(line, substr) {
			fmt.Fprintln(&out, line)
		}
	}
	return out.String()
}

func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 8, MaxConcurrent: 2, Workers: 4})
	status, body := post(t, ts.URL, "/v1/sweep",
		`{"benchmarks":["fpppp"],"filters":["none","pa","pa"],"instructions":30000,"warmup":10000,"seed":990078}`)
	if status != 200 {
		t.Fatalf("sweep: status = %d (body %s)", status, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Jobs != 3 || resp.Unique != 2 {
		t.Fatalf("jobs=%d unique=%d, want 3/2 (duplicate pa cell must dedup)", resp.Jobs, resp.Unique)
	}
	if resp.Errors != 0 || len(resp.Results) != 2 {
		t.Fatalf("errors=%d results=%d: %s", resp.Errors, len(resp.Results), body)
	}
	names := map[string]bool{}
	for _, r := range resp.Results {
		names[r.Name] = true
		if r.IPC <= 0 || r.Run == nil {
			t.Fatalf("result %s has no payload: %+v", r.Name, r)
		}
	}
	if !names["fpppp/none"] || !names["fpppp/pa"] {
		t.Fatalf("unexpected result names: %v", names)
	}
}

func TestSweepStandardExpansion(t *testing.T) {
	calls := make(chan string, 256)
	s, ts := newTestServer(t, Config{QueueDepth: 8, MaxConcurrent: 2, Workers: 4})
	s.runSim = func(_ context.Context, _ *experiments.Params, bench string, _ config.Config) (stats.Run, error) {
		calls <- bench
		return stats.Run{Instructions: 1, Cycles: 2}, nil
	}
	status, body := post(t, ts.URL, "/v1/sweep", `{"standard":true,"benchmarks":["fpppp"]}`)
	if status != 200 {
		t.Fatalf("standard sweep: status = %d (body %s)", status, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	// The standard matrix for one benchmark spans the filter triples,
	// table/port sweeps, buffer schemes, and the 16KB comparison.
	if resp.Unique < 15 {
		t.Fatalf("standard matrix expanded to only %d unique jobs", resp.Unique)
	}
	if got := len(calls); got != resp.Unique {
		t.Fatalf("runner executed %d jobs, response reports %d", got, resp.Unique)
	}
	for len(calls) > 0 {
		if b := <-calls; b != "fpppp" {
			t.Fatalf("standard sweep escaped the benchmark narrowing: ran %q", b)
		}
	}
}

func TestSimulationErrorSurfacesAs500(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.runSim = func(context.Context, *experiments.Params, string, config.Config) (stats.Run, error) {
		return stats.Run{}, fmt.Errorf("synthetic failure")
	}
	status, body := post(t, ts.URL, "/v1/run", `{"benchmark":"mcf"}`)
	if status != http.StatusInternalServerError || !strings.Contains(string(body), "synthetic failure") {
		t.Fatalf("simulation failure: status = %d (body %s)", status, body)
	}
}

func TestSweepUnknownFilterRejectedWithBackendList(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 8, MaxConcurrent: 2, Workers: 4})
	status, body := post(t, ts.URL, "/v1/sweep",
		`{"benchmarks":["fpppp"],"filters":["bogus"],"instructions":30000}`)
	if status != 400 {
		t.Fatalf("unknown filter: status = %d (body %s)", status, body)
	}
	var resp errorResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bogus", "registered backends", "perceptron", "bloom", "tournament", "pa", "pc"} {
		if !strings.Contains(resp.Error, want) {
			t.Fatalf("400 body should name %q, got: %s", want, resp.Error)
		}
	}
	// Same contract on /v1/run.
	status, body = post(t, ts.URL, "/v1/run", `{"benchmark":"fpppp","filter":"bogus"}`)
	if status != 400 || !strings.Contains(string(body), "registered backends") {
		t.Fatalf("run unknown filter: status=%d body=%s", status, body)
	}
}

func TestSweepFiltersAllWithComparison(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 8, MaxConcurrent: 2, Workers: 4})
	status, body := post(t, ts.URL, "/v1/sweep",
		`{"benchmarks":["fpppp"],"filters":["all"],"instructions":30000,"warmup":10000}`)
	if status != 200 {
		t.Fatalf("filters=all sweep: status = %d (body %s)", status, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Errors != 0 {
		t.Fatalf("errors=%d: %s", resp.Errors, body)
	}
	got := map[string]bool{}
	for _, r := range resp.Results {
		got[r.Filter] = true
	}
	for _, want := range []string{"none", "pa", "pc", "adaptive", "deadblock", "perceptron", "bloom", "tournament"} {
		if !got[want] {
			t.Fatalf("filters=all missing backend %q (got %v)", want, got)
		}
	}
	if got["static"] {
		t.Fatal("filters=all must skip the static filter")
	}
	if len(resp.Comparison) != len(resp.Results) {
		t.Fatalf("comparison rows = %d, results = %d", len(resp.Comparison), len(resp.Results))
	}
	var none, pa *int
	for i := range resp.Comparison {
		c := resp.Comparison[i]
		if c.Benchmark != "fpppp" {
			t.Fatalf("comparison row for unexpected benchmark: %+v", c)
		}
		if c.Accuracy < 0 || c.Accuracy > 1 || c.Coverage < 0 || c.Coverage > 1 {
			t.Fatalf("metrics out of range: %+v", c)
		}
		switch c.Filter {
		case "none":
			none = &i
			if c.IPCDelta != 0 {
				t.Fatalf("baseline delta must be 0: %+v", c)
			}
		case "pa":
			pa = &i
		}
	}
	if none == nil || pa == nil {
		t.Fatalf("comparison missing none/pa rows: %+v", resp.Comparison)
	}
	noneRow, paRow := resp.Comparison[*none], resp.Comparison[*pa]
	if diff := paRow.IPC - noneRow.IPC; diff != paRow.IPCDelta {
		t.Fatalf("pa delta %g inconsistent with IPCs %g/%g", paRow.IPCDelta, paRow.IPC, noneRow.IPC)
	}
}

func TestSweepUnknownGeneratorRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 8, MaxConcurrent: 2, Workers: 4})
	status, body := post(t, ts.URL, "/v1/sweep",
		`{"benchmarks":["fpppp"],"generators":["bogus"],"instructions":30000}`)
	if status != 400 {
		t.Fatalf("unknown generator: status = %d (body %s)", status, body)
	}
	var resp errorResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bogus", "registered generators", "nsp", "sdp", "stride", "corr", "berti", "ghb"} {
		if !strings.Contains(resp.Error, want) {
			t.Fatalf("400 body should name %q, got: %s", want, resp.Error)
		}
	}
}

func TestSweepGeneratorsAllCrossProduct(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 8, MaxConcurrent: 2, Workers: 8, MaxSweepJobs: 64})
	status, body := post(t, ts.URL, "/v1/sweep",
		`{"benchmarks":["stream"],"generators":["all"],"filters":["all"],"instructions":30000,"warmup":10000}`)
	if status != 200 {
		t.Fatalf("generators=all sweep: status = %d (body %s)", status, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Errors != 0 {
		t.Fatalf("errors=%d: %s", resp.Errors, body)
	}
	gens := map[string]map[string]bool{}
	for _, r := range resp.Results {
		if r.Generator == "" {
			t.Fatalf("generator-axis cell missing generator label: %+v", r)
		}
		if want := r.Benchmark + "/" + r.Generator + "/" + r.Filter; r.Name != want {
			t.Fatalf("cell name = %q, want %q", r.Name, want)
		}
		if gens[r.Generator] == nil {
			gens[r.Generator] = map[string]bool{}
		}
		gens[r.Generator][r.Filter] = true
	}
	if len(gens) < 5 {
		t.Fatalf("generators=all should cover >= 5 generators, got %d (%v)", len(gens), gens)
	}
	for _, g := range []string{"nsp", "sdp", "stride", "corr", "berti", "ghb"} {
		filters := gens[g]
		if filters == nil {
			t.Fatalf("generators=all missing generator %q", g)
		}
		if len(filters) < 6 {
			t.Fatalf("generator %q should cross >= 6 filters, got %d (%v)", g, len(filters), filters)
		}
	}
	if len(resp.Comparison) != 0 {
		t.Fatalf("generator sweep should use generator_comparison, got plain comparison: %d rows", len(resp.Comparison))
	}
	if len(resp.GeneratorComparison) != len(resp.Results) {
		t.Fatalf("generator comparison rows = %d, results = %d", len(resp.GeneratorComparison), len(resp.Results))
	}
	for _, c := range resp.GeneratorComparison {
		if c.Filter == "none" && c.IPCDelta != 0 {
			t.Fatalf("baseline delta must be 0: %+v", c)
		}
	}
}

func TestSweepGeneratorAliasCanonicalized(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 8, MaxConcurrent: 2, Workers: 4})
	status, body := post(t, ts.URL, "/v1/sweep",
		`{"benchmarks":["fpppp"],"generators":["ghb-pc-delta","ghb","correlation"],"filters":["none"],"instructions":30000,"warmup":10000}`)
	if status != 200 {
		t.Fatalf("alias sweep: status = %d (body %s)", status, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, r := range resp.Results {
		got[r.Generator]++
	}
	if len(got) != 2 || got["ghb"] != 1 || got["corr"] != 1 {
		t.Fatalf("aliases should canonicalize and dedup to ghb+corr, got %v", got)
	}
}

func TestSweepUnknownIPrefetchRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 8, MaxConcurrent: 2, Workers: 4})
	status, body := post(t, ts.URL, "/v1/sweep",
		`{"benchmarks":["fpppp"],"iprefetch":["bogus"],"instructions":30000}`)
	if status != 400 {
		t.Fatalf("unknown iprefetcher: status = %d (body %s)", status, body)
	}
	var resp errorResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bogus", "registered backends", "mana", "nextline"} {
		if !strings.Contains(resp.Error, want) {
			t.Fatalf("400 body should name %q, got: %s", want, resp.Error)
		}
	}
}

func TestSweepIPrefetchAndGeneratorsExclusive(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 8, MaxConcurrent: 2, Workers: 4})
	status, body := post(t, ts.URL, "/v1/sweep",
		`{"benchmarks":["fpppp"],"iprefetch":["nextline"],"generators":["nsp"],"instructions":30000}`)
	if status != 400 {
		t.Fatalf("combined axes: status = %d (body %s)", status, body)
	}
	if !strings.Contains(string(body), "cannot be combined") {
		t.Fatalf("400 body should explain the axis conflict, got: %s", body)
	}
}

func TestSweepIPrefetchAllCrossProduct(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 8, MaxConcurrent: 2, Workers: 8, MaxSweepJobs: 64})
	status, body := post(t, ts.URL, "/v1/sweep",
		`{"benchmarks":["stream"],"iprefetch":["all"],"filters":["none","pa"],"instructions":30000,"warmup":10000}`)
	if status != 200 {
		t.Fatalf("iprefetch=all sweep: status = %d (body %s)", status, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Errors != 0 {
		t.Fatalf("errors=%d: %s", resp.Errors, body)
	}
	iprefs := map[string]map[string]bool{}
	for _, r := range resp.Results {
		if r.IPrefetcher == "" {
			t.Fatalf("iprefetch-axis cell missing label: %+v", r)
		}
		if want := r.Benchmark + "/i:" + r.IPrefetcher + "/" + r.Filter; r.Name != want {
			t.Fatalf("cell name = %q, want %q", r.Name, want)
		}
		if r.Run == nil || r.Run.Frontend == nil {
			t.Fatalf("iprefetch cell %s must carry the Frontend stats block", r.Name)
		}
		if iprefs[r.IPrefetcher] == nil {
			iprefs[r.IPrefetcher] = map[string]bool{}
		}
		iprefs[r.IPrefetcher][r.Filter] = true
	}
	for _, ip := range []string{"mana", "nextline"} {
		if len(iprefs[ip]) != 2 {
			t.Fatalf("iprefetch=all should cross %q with 2 filters, got %v", ip, iprefs[ip])
		}
	}
	if len(resp.Comparison) != 0 || len(resp.GeneratorComparison) != 0 {
		t.Fatalf("iprefetch sweep must use iprefetch_comparison only (plain=%d gen=%d)",
			len(resp.Comparison), len(resp.GeneratorComparison))
	}
	if len(resp.IPrefetchComparison) != len(resp.Results) {
		t.Fatalf("iprefetch comparison rows = %d, results = %d", len(resp.IPrefetchComparison), len(resp.Results))
	}
	for _, c := range resp.IPrefetchComparison {
		if c.Filter == "none" && c.IPCDelta != 0 {
			t.Fatalf("baseline delta must be 0: %+v", c)
		}
	}
}

func TestSweepIPrefetchAliasCanonicalized(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 8, MaxConcurrent: 2, Workers: 4})
	status, body := post(t, ts.URL, "/v1/sweep",
		`{"benchmarks":["fpppp"],"iprefetch":["fetch-directed","nextline"],"filters":["none"],"instructions":30000,"warmup":10000}`)
	if status != 200 {
		t.Fatalf("alias sweep: status = %d (body %s)", status, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, r := range resp.Results {
		got[r.IPrefetcher]++
	}
	if len(got) != 1 || got["nextline"] != 1 {
		t.Fatalf("alias should canonicalize and dedup to nextline, got %v", got)
	}
}

// TestSweepFilterAliasCanonicalized: the filter axis resolves like the
// experiments' — aliases fold onto their canonical kind (one cell, one
// CAS key, labelled "pa"), and the static filter, which needs a
// profiling run, is a request error rather than a per-cell failure.
func TestSweepFilterAliasCanonicalized(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 8, MaxConcurrent: 2, Workers: 4})
	s.runSim = func(context.Context, *experiments.Params, string, config.Config) (stats.Run, error) {
		return stats.Run{Instructions: 1, Cycles: 2}, nil
	}
	status, body := post(t, ts.URL, "/v1/sweep", `{"benchmarks":["fpppp"],"filters":["pa","table-pa"]}`)
	if status != 200 {
		t.Fatalf("alias sweep: status = %d (body %s)", status, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Unique != 1 || len(resp.Results) != 1 || resp.Results[0].Name != "fpppp/pa" {
		t.Fatalf("pa+table-pa should be one cell fpppp/pa, got unique=%d: %s", resp.Unique, body)
	}
	sweepSHA := resp.Results[0].KeySHA

	status, body = post(t, ts.URL, "/v1/sweep", `{"benchmarks":["fpppp"],"filters":["static"]}`)
	if status != 400 || !strings.Contains(string(body), "static") {
		t.Fatalf("static in a sweep: status = %d (body %s), want 400 naming static", status, body)
	}

	status, body = post(t, ts.URL, "/v1/run", `{"benchmark":"fpppp","filter":"table-pa"}`)
	if status != 200 {
		t.Fatalf("alias run: status = %d (body %s)", status, body)
	}
	var run RunResponse
	if err := json.Unmarshal(body, &run); err != nil {
		t.Fatal(err)
	}
	if run.Result.Filter != "pa" || run.Result.KeySHA != sweepSHA {
		t.Fatalf("run table-pa = filter %q key %s, want pa's cell %s", run.Result.Filter, run.Result.KeySHA, sweepSHA)
	}
}
