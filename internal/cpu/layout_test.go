package cpu

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/filter"
	"repro/internal/hier"
	"repro/internal/xrand"
)

// TestHotStateLayout pins the size of the per-frame and per-instruction
// state the cycle loop walks. A cache copies a frame record out on every
// eviction and clears one on every fill, and dispatch, issue and retire
// touch ROB entries every cycle, so each byte added to these structs
// spreads the same work over more host cache lines (and, for the frame
// records, adds to every machine's set-up: the L2 has 16,384 frames).
func TestHotStateLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"cache.L1Line", unsafe.Sizeof(cache.L1Line{}), 24},
		{"cache.L2Line", unsafe.Sizeof(cache.L2Line{}), 16},
		{"robEntry", unsafe.Sizeof(robEntry{}), 32},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, over its %d-byte budget: a larger struct costs host cache lines on every access that walks it (group the narrow fields so they share one word)",
				c.name, c.size, c.max)
		}
	}
}

// buildMachine builds one machine the way sim.Run builds it: filter,
// hierarchy, core.
func buildMachine(tb testing.TB, cfg config.Config) (*hier.Hierarchy, *CPU) {
	f, err := filter.New(cfg.Filter)
	if err != nil {
		tb.Fatal(err)
	}
	h, err := hier.New(cfg, f, xrand.New(cfg.Seed^0xfeed))
	if err != nil {
		tb.Fatal(err)
	}
	c, err := New(cfg.CPU, h)
	if err != nil {
		tb.Fatal(err)
	}
	return h, c
}

// TestMachineBuildAllocs pins how many allocations building one machine
// takes. Every cell of a sweep pays for this before its first cycle, so
// a structure that allocates once per set (the BTB has 4,096, the
// correlation table 1,024) shows up as setup time.
func TestMachineBuildAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  config.Config
	}{
		{"default", config.Default()},
		{"corr", config.Default().WithGenerator(config.PrefetchCorrelation)},
	} {
		cfg := c.cfg
		allocs := testing.AllocsPerRun(3, func() { buildMachine(t, cfg) })
		if allocs > 300 {
			t.Errorf("building one %s machine makes %.0f allocations, over 300: a structure allocating once per set or per entry costs setup_s on every cell (store it as one flat slice)", c.name, allocs)
		}
		t.Logf("%s: %.0f allocations per machine", c.name, allocs)
	}
}

// TestMachineBuildBytes pins how many bytes a fresh config.Default()
// machine allocates (about 0.89 MB). A machine not built from recycled
// arrays clears every byte it allocates, and the set-up of a sweep
// builds one per cell.
func TestMachineBuildBytes(t *testing.T) {
	cfg := config.Default()
	runtime.GC() // twice: empties the array pools, so the machine is fresh
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	buildMachine(t, cfg)
	runtime.ReadMemStats(&after)
	const limit = 1_000_000
	if n := after.TotalAlloc - before.TotalAlloc; n > limit {
		t.Errorf("a fresh config.Default() machine allocates %d bytes, over %d: every frame of the 16,384-frame L2 and every way of the 16,384-way BTB is paid for per cell (keep per-frame state to what its level reads)", n, limit)
	} else {
		t.Logf("a fresh machine allocates %d bytes", n)
	}
}

// BenchmarkMachineBuild times building a config.Default() machine fresh
// (the arrays allocated, as a dry build does) and recycled (each machine
// released for the next, as sim.Run does); B/op is the bytes each
// allocates.
func BenchmarkMachineBuild(b *testing.B) {
	cfg := config.Default()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buildMachine(b, cfg)
		}
	})
	b.Run("recycled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h, c := buildMachine(b, cfg)
			c.Release()
			h.Release()
		}
	})
}
