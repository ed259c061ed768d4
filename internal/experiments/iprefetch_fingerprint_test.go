package experiments

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/workload"
)

// iprefetchFingerprintSHA256 pins the exact simulated behaviour of each
// registered instruction prefetcher, exactly like the generator zoo's
// fingerprints pin the D-side: the ((paper benchmarks + the checked-in
// ChampSim fixture trace) × {none, pa}) comparison rows at
// Params{Instructions: 10_000, Warmup: 2_000, Seed: 1}, hashed. Any
// change to the fetch model, the L1I wiring, a backend's tables, or
// the I-side filter feedback shows up here. Update a constant ONLY for
// an intentional behaviour change, and say so in the commit message.
var iprefetchFingerprintSHA256 = map[string]string{
	"nextline": "3f47da1e4a47374e4cf8d35ad3361b9d02e3a491620281eb14d19f67d812c20d",
	"mana":     "8535b295201a7bb715ddd60ae28646975cfb5cfd5e239d143196f77160570385",
}

// iprefetchBenchmarks is the fingerprint corpus: the paper's ten
// synthetic workloads plus the real-trace fixture, so the trace-driven
// fetch stream is under the same determinism contract as the live one.
func iprefetchBenchmarks(t *testing.T) []string {
	t.Helper()
	return append(workload.PaperNames(), registerSampleCorpus(t))
}

func iprefetchHash(t *testing.T, ipref string, workers int) string {
	t.Helper()
	p := &Params{Instructions: 10_000, Warmup: 2_000, Seed: 1,
		Benchmarks: iprefetchBenchmarks(t)}
	cells, err := p.Sweep(context.Background(), IPrefetchAxis, []string{ipref}, []string{string(config.FilterPA)}, workers)
	if err != nil {
		t.Fatalf("Sweep(%s, workers=%d): %v", ipref, workers, err)
	}
	return rowsHash(t, Rows(cells))
}

// TestIPrefetchFingerprintPinned extends the determinism contract to
// the I-side: every registered instruction prefetcher's comparison rows
// hash to the committed value, identically at 1, 4, and 8 workers.
func TestIPrefetchFingerprintPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("per-backend fingerprints are a few seconds; skipped with -short")
	}
	for ipref, want := range iprefetchFingerprintSHA256 {
		ipref, want := ipref, want
		t.Run(ipref, func(t *testing.T) {
			for _, workers := range []int{1, 4, 8} {
				if got := iprefetchHash(t, ipref, workers); got != want {
					t.Errorf("ipref=%s workers=%d fingerprint = %s, want %s", ipref, workers, got, want)
				}
			}
		})
	}
}

// TestIPrefetchAliasRunsIdentical pins the alias contract from the
// frontend registry: a simulation configured through the
// "fetch-directed" alias must produce byte-for-byte the stats of the
// canonical "nextline" kind.
func TestIPrefetchAliasRunsIdentical(t *testing.T) {
	run := func(kind config.IPrefetchKind) stats.Run {
		t.Helper()
		p := &Params{Instructions: 10_000, Warmup: 2_000, Seed: 1}
		r, err := p.run("mcf", config.Default().WithIPrefetch(kind))
		if err != nil {
			t.Fatalf("run(%s): %v", kind, err)
		}
		return r
	}
	alias, canon := run(config.IPrefetchFDIPAlias), run(config.IPrefetchNextLine)
	aj, _ := json.Marshal(alias)
	cj, _ := json.Marshal(canon)
	if string(aj) != string(cj) {
		t.Errorf("alias %q diverged from %q:\nalias: %s\ncanon: %s",
			config.IPrefetchFDIPAlias, config.IPrefetchNextLine, aj, cj)
	}
}
