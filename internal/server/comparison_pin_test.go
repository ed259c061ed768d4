package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestSweepComparisonPinned pins the comparison blocks of three small
// real sweeps — plain filters, generators without a "none" baseline
// (the zero-delta fallback), and I-prefetchers — by the sha256 of their
// JSON. The blocks carry the server's row derivation, baseline pairing
// and row order. Update a constant ONLY for an intentional behaviour or
// row-shape change, and say so in the commit message.
func TestSweepComparisonPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("three real sweeps are not short")
	}
	cases := []struct {
		name, body string
		block      func(SweepResponse) any
		want       string
	}{
		{
			"comparison",
			`{"benchmarks":["mcf","stream"],"filters":["none","pa","pc","perceptron"]}`,
			func(r SweepResponse) any { return r.Comparison },
			"3c8f02a6eeb9dd6bfa1a7730a80b909af90880673a6225fc05f0f91ea2b694e2",
		},
		{
			"generator_comparison",
			`{"benchmarks":["mcf","gzip"],"generators":["nsp","berti","ghb"],"filters":["pa","perceptron"]}`,
			func(r SweepResponse) any { return r.GeneratorComparison },
			"9528aabe495a3f6e50e3792f80e6bfc55b15d264c65522b9bb02e74325e17d35",
		},
		{
			"iprefetch_comparison",
			`{"benchmarks":["mcf"],"iprefetch":["all"],"filters":["none","pa"]}`,
			func(r SweepResponse) any { return r.IPrefetchComparison },
			"a0b821e14c60915bc2f766ef86cb190052273f4fb10c9d3012976f04b943bae6",
		},
	}
	_, ts := newTestServer(t, Config{QueueDepth: 8, MaxConcurrent: 2, Workers: 4, MaxSweepJobs: 64})
	for _, tc := range cases {
		body := tc.body[:len(tc.body)-1] + `,"instructions":10000,"warmup":2000,"seed":1}`
		status, respBody := post(t, ts.URL, "/v1/sweep", body)
		if status != 200 {
			t.Fatalf("%s: status = %d (body %s)", tc.name, status, respBody)
		}
		var resp SweepResponse
		if err := json.Unmarshal(respBody, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Errors != 0 {
			t.Fatalf("%s: %d cell errors: %s", tc.name, resp.Errors, respBody)
		}
		blob, err := json.Marshal(tc.block(resp))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s fingerprint = %s, want %s", tc.name, got, tc.want)
		}
	}
}
