package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// filterComparisonSHA256 pins the JSON rows of the plain filter
// comparison — the paper's ten benchmarks × every sweepable filter at
// Params{Instructions: 10_000, Warmup: 2_000, Seed: 1} — and
// traceComparisonSHA256 the same comparison over the checked-in
// ChampSim fixture trace. They cover the row derivation (coverage,
// accuracy, IPC deltas against the unfiltered cell) and the row order,
// not just the simulations beneath them. Update a constant ONLY for an
// intentional behaviour or row-shape change, and say so in the commit
// message.
const (
	filterComparisonSHA256 = "8068a26fffa4ac4187a2b4f6e503a06ba3fb8813556c1effc2c06d78cdf1416c"
	traceComparisonSHA256  = "6c56c30d0038b2f66de2495d328342e196cb3a777784ed3c3b2d169b32d425cb"
)

func rowsHash(t *testing.T, rows any) string {
	t.Helper()
	blob, err := json.Marshal(rows)
	if err != nil {
		t.Fatalf("marshal rows: %v", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// TestFilterComparisonPinned: the plain filter comparison's rows hash to
// the committed value, identically at 1, 4, and 8 workers.
func TestFilterComparisonPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("the full filter comparison is a few seconds; skipped with -short")
	}
	for _, workers := range []int{1, 4, 8} {
		p := &Params{Instructions: 10_000, Warmup: 2_000, Seed: 1, Workers: workers}
		cells, err := p.Sweep(context.Background(), nil, nil, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := rowsHash(t, Rows(cells)); got != filterComparisonSHA256 {
			t.Errorf("workers=%d fingerprint = %s, want %s", workers, got, filterComparisonSHA256)
		}
	}
}

// TestTraceComparisonPinned: the trace comparison over the fixture
// corpus hashes to the committed value, identically at 1, 4, and 8
// workers.
func TestTraceComparisonPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("trace replay sweep is not short")
	}
	registerSampleCorpus(t)
	traces, err := ExpandTraces(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		p := &Params{Instructions: 10_000, Warmup: 2_000, Seed: 1, Benchmarks: traces, Workers: workers}
		cells, err := p.Sweep(context.Background(), nil, nil, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := rowsHash(t, Rows(cells)); got != traceComparisonSHA256 {
			t.Errorf("workers=%d fingerprint = %s, want %s", workers, got, traceComparisonSHA256)
		}
	}
}
