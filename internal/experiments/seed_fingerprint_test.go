package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
)

// seedFingerprintSHA256 pins the exact simulated behaviour of the standard
// matrix (Params{Instructions: 10_000, Warmup: 2_000, Seed: 1})
// as of the introduction of the internal/filter registry. The table-family
// filter paths must stay bit-identical across refactors: any change to
// cache policy, prefetcher behaviour, the PA/PC filter tables, or the
// stats schema shows up here. Update this constant ONLY for an intentional
// behaviour change, and say so in the commit message.
const seedFingerprintSHA256 = "3970fc8e221e51af03c64c4a0df1993120aacea07acf2d33c52e76798acda8ba"

func standardMatrixHash(t *testing.T, workers int) string {
	t.Helper()
	p := &Params{Instructions: 10_000, Warmup: 2_000, Seed: 1, Workers: workers}
	if err := p.RunCells(context.Background(), p.StandardMatrix()); err != nil {
		t.Fatalf("RunCells(StandardMatrix, workers=%d): %v", workers, err)
	}
	sum := sha256.Sum256(p.Fingerprint())
	return hex.EncodeToString(sum[:])
}

// TestSeedFingerprintPinned is the determinism contract: the full standard
// matrix hashes to the committed seed value, and the hash is identical at
// 1, 4, and 8 workers (scheduling must not leak into results).
func TestSeedFingerprintPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix fingerprint is a few seconds; skipped with -short")
	}
	for _, workers := range []int{1, 4, 8} {
		if got := standardMatrixHash(t, workers); got != seedFingerprintSHA256 {
			t.Errorf("workers=%d fingerprint = %s, want %s", workers, got, seedFingerprintSHA256)
		}
	}
}

// TestFilterAliasRunsIdentical pins the alias contract from the filter
// registry: a simulation configured with Filter.Kind "table-pa"/"table-pc"
// must produce byte-for-byte the stats of the canonical "pa"/"pc" kinds.
func TestFilterAliasRunsIdentical(t *testing.T) {
	run := func(kind config.FilterKind) stats.Run {
		t.Helper()
		p := &Params{Instructions: 10_000, Warmup: 2_000, Seed: 1}
		r, err := p.RunSim(context.Background(), "mcf", config.Default().WithFilter(kind))
		if err != nil {
			t.Fatalf("run(%s): %v", kind, err)
		}
		return r
	}
	for _, pair := range [][2]config.FilterKind{
		{config.FilterTablePA, config.FilterPA},
		{config.FilterTablePC, config.FilterPC},
	} {
		alias, canon := run(pair[0]), run(pair[1])
		// The filter name differs cosmetically only through the kind label;
		// normalize before comparing whole Run structs.
		alias.Filter = canon.Filter
		aj, _ := json.Marshal(alias)
		cj, _ := json.Marshal(canon)
		if string(aj) != string(cj) {
			t.Errorf("alias %q diverged from %q:\nalias: %s\ncanon: %s", pair[0], pair[1], aj, cj)
		}
	}
}
