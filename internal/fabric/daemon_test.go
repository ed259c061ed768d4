// Daemon-level tests of the cell loop's memory: a real pfserved Server
// with a store, simulating for real at a tiny budget.
package fabric_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/server"
)

// TestStandaloneRepeatSweepReadsNothing: a standalone daemon with a
// store sweeps, then repeats the sweep in the same process. The repeat
// is answered from the daemon's memory: it reads no file and simulates
// nothing, and reports every cell as a cas hit with the cold
// fingerprint.
func TestStandaloneRepeatSweepReadsNothing(t *testing.T) {
	m := metrics.New()
	cas, err := fabric.OpenCAS(t.TempDir(), m)
	if err != nil {
		t.Fatal(err)
	}
	var reads atomic.Int64
	fabric.CountReads(cas, &reads)
	ts := httptest.NewServer(server.New(server.Config{CAS: cas, Metrics: m}).Handler())
	defer ts.Close()

	sweep := func() server.SweepResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
			strings.NewReader(`{"benchmarks":["mcf","gzip"],"filters":["none","pa"],"instructions":2000,"warmup":0,"seed":3}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr server.SweepResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || sr.Errors != 0 || sr.Unique != 4 {
			t.Fatalf("sweep: status %d, %d errors, %d unique; want 200, 0 and 4", resp.StatusCode, sr.Errors, sr.Unique)
		}
		return sr
	}
	sims := func() uint64 { return m.Snapshot().Counters["experiments.cache.misses"] }

	cold := sweep()
	if cold.CASHits != 0 || sims() != 4 {
		t.Fatalf("cold sweep: cas_hits = %d, %d simulations; want 0 and 4", cold.CASHits, sims())
	}
	readsCold := reads.Load()
	warm := sweep()
	if n := reads.Load() - readsCold; n != 0 {
		t.Fatalf("the repeat read %d files, want 0", n)
	}
	if sims() != 4 {
		t.Fatalf("the repeat simulated %d cells, want 0", sims()-4)
	}
	if warm.CASHits != warm.Unique || warm.Fingerprint != cold.Fingerprint {
		t.Fatalf("the repeat: cas_hits = %d of %d, fingerprint match %v; want every cell and the cold fingerprint",
			warm.CASHits, warm.Unique, warm.Fingerprint == cold.Fingerprint)
	}
}
