package cpu

import (
	"testing"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/filter"
	"repro/internal/hier"
	"repro/internal/xrand"
)

// TestHotStateLayout pins the size of the per-line and per-instruction
// state the cycle loop walks. A cache set scans its Lines on every
// victim choice, and dispatch, issue and retire touch ROB entries every
// cycle, so each byte added to either struct spreads the same work over
// more host cache lines.
func TestHotStateLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"cache.Line", unsafe.Sizeof(cache.Line{}), 56},
		{"robEntry", unsafe.Sizeof(robEntry{}), 32},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, over its %d-byte budget: a larger struct costs host cache lines on every access that walks it (group the narrow fields so they share one word)",
				c.name, c.size, c.max)
		}
	}
}

// TestMachineBuildAllocs pins how many allocations building one machine
// takes, built the way sim.Run builds it: filter, hierarchy, core. Every
// cell of a sweep pays for this before its first cycle, so a structure
// that allocates once per set (the BTB has 4,096, the correlation table
// 1,024) shows up as setup time.
func TestMachineBuildAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  config.Config
	}{
		{"default", config.Default()},
		{"corr", config.Default().WithGenerator(config.PrefetchCorrelation)},
	} {
		cfg := c.cfg
		allocs := testing.AllocsPerRun(3, func() {
			f, err := filter.New(cfg.Filter)
			if err != nil {
				t.Fatal(err)
			}
			h, err := hier.New(cfg, f, xrand.New(cfg.Seed^0xfeed))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := New(cfg.CPU, h); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 300 {
			t.Errorf("building one %s machine makes %.0f allocations, over 300: a structure allocating once per set or per entry costs setup_s on every cell (store it as one flat slice)", c.name, allocs)
		}
		t.Logf("%s: %.0f allocations per machine", c.name, allocs)
	}
}
