package cache_test

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// TestScribbledArraysRunLikeFresh: a cache clears only its recycled tag
// array, so the stamps and records it inherits hold whatever the last
// cache left. Here they hold garbage, and the run (its stats.Run and
// every metric, end-of-run occupancy included) must read exactly as on
// a machine built from fresh arrays. The garbage arrays are handed to
// the pools just before the run; the test fails if the machine did not
// take them.
func TestScribbledArraysRunLikeFresh(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of Puts at random under the race detector")
	}
	// One P and no collections, so the pools hand back exactly what the
	// test put in them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	withRepl := func(p config.ReplacementPolicy) config.Config {
		cfg := config.Default().WithFilter(config.FilterPA)
		cfg.L1.Assoc, cfg.L1.Replacement, cfg.L2.Replacement = 2, p, p
		return cfg
	}
	deadblock := config.Default().WithFilter(config.FilterDeadBlock)
	deadblock.L1.Assoc = 2
	for _, c := range []struct {
		name, bench string
		cfg         config.Config
	}{
		{"lru-sdp", "mcf", config.Default().WithFilter(config.FilterPA)},
		{"fifo", "em3d", withRepl(config.ReplaceFIFO)},
		{"random", "wave5", withRepl(config.ReplaceRandom)},
		{"deadblock", "gcc", deadblock},
		{"frontend", "gcc", config.Default().WithIPrefetch(config.IPrefetchNextLine).WithFilter(config.FilterPA)},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := sim.Options{Benchmark: c.bench, Config: c.cfg, MaxInstructions: 30_000, Warmup: 10_000}
			run := func() (stats.Run, metrics.Snapshot) {
				reg := metrics.New()
				o := opts
				o.Metrics = reg
				r, err := sim.Run(o)
				if err != nil {
					t.Fatal(err)
				}
				return r, reg.Snapshot()
			}
			runtime.GC() // twice: empties the pools, so this machine is fresh
			runtime.GC()
			fresh, freshMetrics := run()
			runtime.GC()
			runtime.GC()

			rng := xrand.New(uint64(len(c.name)))
			garbage := func(cc config.CacheConfig) []uint64 {
				s := make([]uint64, cc.Sets()*cc.Assoc)
				for i := range s {
					s[i] = rng.Uint64() >> (i % 64) // small and large stamps
				}
				return s
			}
			type scribbled struct {
				name         string
				stamps, orig []uint64
				frames       any
				orig2        any
			}
			var all []scribbled
			l1 := func(name string, cc config.CacheConfig) {
				s := garbage(cc)
				fill := cache.L1Line{Dirty: true, PIB: true, SoftPF: true, PFSource: 7, TriggerPC: 0xdead, DeadSig: 0x5eed}
				f := cache.Scribble(s, fill)
				all = append(all, scribbled{name, s, slices.Clone(s), f, slices.Clone(f)})
			}
			l1("l1", c.cfg.L1)
			if c.cfg.Frontend != nil {
				l1("l1i", c.cfg.Frontend.L1I)
			}
			s := garbage(c.cfg.L2)
			f := cache.Scribble(s, cache.L2Line{Dirty: true, ShadowValid: true, Confirm: true, Shadow: 0xbad})
			all = append(all, scribbled{"l2", s, slices.Clone(s), f, slices.Clone(f)})

			again, againMetrics := run()
			for _, a := range all {
				if slices.Equal(a.stamps, a.orig) || reflect.DeepEqual(a.frames, a.orig2) {
					t.Fatalf("the %s did not take the scribbled arrays from the pools", a.name)
				}
			}
			if !reflect.DeepEqual(fresh, again) {
				t.Errorf("run on scribbled arrays differs from the fresh run:\nfresh %+v\nagain %+v", fresh, again)
			}
			if !reflect.DeepEqual(freshMetrics, againMetrics) {
				t.Errorf("metrics on scribbled arrays differ from the fresh run:\nfresh %v\nagain %v", freshMetrics.Counters, againMetrics.Counters)
			}
			for _, name := range []string{"sim.l2.lines_prefetched", "sim.l2.lines_prefetched_referenced"} {
				if v := againMetrics.Counters[name]; v != 0 {
					t.Errorf("%s = %d, want 0: the L2 keeps no PIB/RIB bits", name, v)
				}
			}
		})
	}
}
