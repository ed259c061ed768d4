package sim

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/config"
)

// TestRecycledMachineMatchesFresh: Run hands its cache and BTB arrays to
// the next Run, so a cell must read the same whatever ran before it. Cell
// A differs from cell B in associativity, generator, benchmark and seed
// but has the same array lengths, so B's second run is built from A's
// used arrays.
func TestRecycledMachineMatchesFresh(t *testing.T) {
	withRepl := func(p config.ReplacementPolicy) config.Config {
		cfg := config.Default().WithFilter(config.FilterPA)
		cfg.L1.Assoc, cfg.L1.Replacement, cfg.L2.Replacement = 2, p, p
		return cfg
	}
	other := config.Default().WithGenerator(config.PrefetchCorrelation).WithIPrefetch(config.IPrefetchMANA)
	other.Prefetch.EnableCorrelation, other.Prefetch.EnableStride = true, true
	other.L1.Assoc, other.L2.Assoc = 4, 8
	other.L2.Replacement = config.ReplaceFIFO
	other.Seed = 99
	a := Options{Benchmark: "gcc", Config: other, MaxInstructions: 30_000, Warmup: 10_000}

	for _, c := range []struct {
		name, bench string
		cfg         config.Config
	}{
		{"lru", "mcf", config.Default().WithFilter(config.FilterPA)},
		{"fifo", "em3d", withRepl(config.ReplaceFIFO)},
		{"random", "wave5", withRepl(config.ReplaceRandom)},
		{"frontend", "gcc", config.Default().WithIPrefetch(config.IPrefetchNextLine).WithFilter(config.FilterPA)},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := Options{Benchmark: c.bench, Config: c.cfg, MaxInstructions: 30_000, Warmup: 10_000}
			first, err := Run(b)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(a); err != nil {
				t.Fatal(err)
			}
			again, err := Run(b)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("cell after a different cell differs from the same cell run first:\nfirst %+v\nafter %+v", first, again)
			}
		})
	}
}

// TestRunRecyclesMachineArrays: once a run has released its arrays, the
// next config.Default() run allocates a small fraction of the machine
// (the L2's line and tag arrays alone are about a megabyte).
func TestRunRecyclesMachineArrays(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of Puts at random under the race detector")
	}
	opts := Options{Benchmark: "mcf", Config: config.Default(), MaxInstructions: 20_000, Warmup: 5_000}
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const limit = 256 << 10
	if n := after.TotalAlloc - before.TotalAlloc; n >= limit {
		t.Errorf("a second config.Default() run allocated %d bytes, want under %d: are the cache and BTB arrays still released and reused?", n, limit)
	} else {
		t.Logf("second run allocated %d bytes", n)
	}
}
