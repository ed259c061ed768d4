package experiments

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
)

// generatorFingerprintSHA256 pins the exact simulated behaviour of each
// registered prefetch generator, exactly like seedFingerprintSHA256 pins
// the filter zoo: the (paper benchmarks × {none, pa}) comparison rows at
// Params{Instructions: 10_000, Warmup: 2_000, Seed: 1}, hashed. Any
// change to a generator's tables, training, or emission order shows up
// here. Update a constant ONLY for an intentional behaviour change, and
// say so in the commit message.
var generatorFingerprintSHA256 = map[string]string{
	"nsp":    "c7eed98df470353f0a287786a84473515557f31b7c47def1beb2e416a4569591",
	"sdp":    "32db876b3c44ee4422193acb54ea6d305626fb58017851ed61c493439fc80dc0",
	"stride": "631c22a4afa10879fa722b10d00e22ea22b947a90edcd36926eb6fe849dc62fb",
	"corr":   "0c9ec21fe7ed329d15c6f1cb5d2adbb8c1a6a63f6a0181096047e849b26fd3e9",
	"berti":  "4521514cc63e3e988c75addec71f2c1b61ff5581aff97f53f7d474deb1e7e397",
	"ghb":    "81321adaa04757898eac7858a4e57a157fdcff0758fb6cb54744851bf677e91f",
}

func generatorHash(t *testing.T, gen string, workers int) string {
	t.Helper()
	p := &Params{Instructions: 10_000, Warmup: 2_000, Seed: 1, Workers: workers}
	cells, err := p.Sweep(context.Background(), GeneratorAxis, []string{gen}, []string{string(config.FilterPA)})
	if err != nil {
		t.Fatalf("Sweep(%s, workers=%d): %v", gen, workers, err)
	}
	return rowsHash(t, Rows(cells))
}

// TestGeneratorFingerprintPinned extends the determinism contract to the
// generator zoo: every registered generator's comparison rows hash to
// the committed value, identically at 1, 4, and 8 workers.
func TestGeneratorFingerprintPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("per-generator fingerprints are a few seconds; skipped with -short")
	}
	for gen, want := range generatorFingerprintSHA256 {
		gen, want := gen, want
		t.Run(gen, func(t *testing.T) {
			for _, workers := range []int{1, 4, 8} {
				if got := generatorHash(t, gen, workers); got != want {
					t.Errorf("gen=%s workers=%d fingerprint = %s, want %s", gen, workers, got, want)
				}
			}
		})
	}
}

// TestGeneratorAliasRunsIdentical pins the alias contract from the
// prefetch registry: a simulation configured through the "correlation"
// and "ghb-pc-delta" aliases must produce byte-for-byte the stats of the
// canonical "corr"/"ghb" kinds.
func TestGeneratorAliasRunsIdentical(t *testing.T) {
	run := func(kind config.PrefetchKind) stats.Run {
		t.Helper()
		p := &Params{Instructions: 10_000, Warmup: 2_000, Seed: 1}
		r, err := p.RunSim(context.Background(), "mcf", config.Default().WithGenerator(kind))
		if err != nil {
			t.Fatalf("run(%s): %v", kind, err)
		}
		return r
	}
	for _, pair := range [][2]config.PrefetchKind{
		{config.PrefetchCorrelationAlias, config.PrefetchCorrelation},
		{config.PrefetchGHBAlias, config.PrefetchGHB},
	} {
		alias, canon := run(pair[0]), run(pair[1])
		aj, _ := json.Marshal(alias)
		cj, _ := json.Marshal(canon)
		if string(aj) != string(cj) {
			t.Errorf("alias %q diverged from %q:\nalias: %s\ncanon: %s", pair[0], pair[1], aj, cj)
		}
	}
}
