package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/metrics"
)

// machineCountersSHA256 pins every counter a run exposes, not only the
// ones stats.Run carries: the sim.cpu.* gauges (ROB, LSQ and MSHR stall
// cycles, prefetch port waits, fetch stalls) and every live sim.* counter
// land in the metrics snapshot hashed beside each stats.Run. Core-loop
// optimisations must leave this value untouched. Update it ONLY for an
// intentional behaviour change, and say so in the commit message.
const machineCountersSHA256 = "a41bc383fc75a9100c6c6636bcf9eea42085f14333dcf1b22943069a24a1db4e"

// counterMachines is the machine set the counter pin covers: the paper
// machine; each I-prefetcher, MANA alone and next-line beside the D-side
// generators under an MSHR bound; a small window that keeps the ROB and
// LSQ full; the prefetch buffer under a tight MSHR bound; and a front end
// without instruction prefetching over a non-power-of-two ROB.
func counterMachines() []struct {
	name string
	cfg  config.Config
} {
	paper := config.Default().WithFilter(config.FilterPA)
	window := func(c config.Config, rob, lsq int) config.Config {
		c.CPU.ROBEntries, c.CPU.LSQEntries = rob, lsq
		return c
	}
	mshrs := func(c config.Config, n int) config.Config {
		c.CPU.MSHRs = n
		return c
	}
	frontend := func(c config.Config, kind config.IPrefetchKind) config.Config {
		fe := config.DefaultFrontend()
		fe.IPrefetch = kind
		c.Frontend = &fe
		return c
	}
	return []struct {
		name string
		cfg  config.Config
	}{
		{"default", paper},
		{"mana", paper.WithIPrefetch(config.IPrefetchMANA)},
		{"nextline+mshrs4", mshrs(frontend(paper, config.IPrefetchNextLine), 4)},
		{"rob16/lsq4", window(paper, 16, 4)},
		{"buffer+mshrs2", mshrs(paper.WithPrefetchBuffer(true), 2)},
		{"frontend-none+rob24/lsq6", window(frontend(paper, config.IPrefetchNone), 24, 6)},
	}
}

// TestMachineCountersPinned hashes, for six benchmarks on each machine of
// counterMachines, the stats.Run JSON followed by the run's full metrics
// snapshot.
func TestMachineCountersPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("36 runs of 80k instructions; skipped with -short")
	}
	h := sha256.New()
	// The pin is only as strong as the counters it sees move: each stall
	// counter must be non-zero somewhere in the set.
	moved := map[string]uint64{
		"sim.cpu.rob_stall_cycles": 0, "sim.cpu.lsq_stall_cycles": 0,
		"sim.cpu.mshr_stall_cycles": 0, "sim.cpu.fetch_stall_cycles": 0,
		"sim.cpu.prefetch_port_waits": 0,
	}
	for _, m := range counterMachines() {
		for _, bench := range []string{"mcf", "gzip", "gcc", "gap", "fpppp", "em3d"} {
			reg := metrics.New()
			run, err := Run(Options{
				Benchmark:       bench,
				Config:          m.cfg,
				MaxInstructions: 60_000,
				Warmup:          20_000,
				Metrics:         reg,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", m.name, bench, err)
			}
			rj, err := json.Marshal(run)
			if err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			for name := range moved {
				moved[name] += snap.Counters[name]
			}
			sj, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(rj)
			h.Write(sj)
		}
	}
	for name, n := range moved {
		if n == 0 {
			t.Errorf("%s is zero on every pinned machine", name)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != machineCountersSHA256 {
		t.Errorf("machine counters fingerprint = %s, want %s", got, machineCountersSHA256)
	}
}
