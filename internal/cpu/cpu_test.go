package cpu

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/isa"
	"repro/internal/xrand"
)

// quietConfig disables prefetching so core-timing tests see pure demand
// behaviour.
func quietConfig() config.Config {
	cfg := config.Default()
	cfg.Prefetch.EnableNSP = false
	cfg.Prefetch.EnableSDP = false
	cfg.Prefetch.EnableSoftware = false
	return cfg
}

func newCPU(t *testing.T, cfg config.Config) (*CPU, *hier.Hierarchy) {
	t.Helper()
	h, err := hier.New(cfg, core.NewNull(), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg.CPU, h)
	if err != nil {
		t.Fatal(err)
	}
	return c, h
}

func TestNewValidation(t *testing.T) {
	cfg := quietConfig()
	h, _ := hier.New(cfg, core.NewNull(), xrand.New(1))
	bad := cfg.CPU
	bad.IssueWidth = 0
	if _, err := New(bad, h); err == nil {
		t.Fatal("invalid CPU config should fail")
	}
	if _, err := New(cfg.CPU, nil); err == nil {
		t.Fatal("nil hierarchy should fail")
	}
}

func TestALUOnlyIPCApproachesWidth(t *testing.T) {
	c, _ := newCPU(t, quietConfig())
	recs := make([]isa.Record, 10000)
	for i := range recs {
		recs[i] = isa.ALU(uint64(0x400000 + i*4))
	}
	res := c.Run(isa.NewSliceSource(recs), 0, 0)
	if res.Instructions != 10000 {
		t.Fatalf("retired %d", res.Instructions)
	}
	if ipc := res.IPC(); ipc < 6 {
		t.Fatalf("pure ALU IPC = %v, want near issue width 8", ipc)
	}
}

func TestMaxInstrBounds(t *testing.T) {
	c, _ := newCPU(t, quietConfig())
	recs := make([]isa.Record, 1000)
	for i := range recs {
		recs[i] = isa.ALU(uint64(0x400000 + i*4))
	}
	res := c.Run(isa.NewSliceSource(recs), 100, 0)
	if res.Instructions != 100 {
		t.Fatalf("retired %d, want 100", res.Instructions)
	}
}

func TestMissLatencyStallsPipeline(t *testing.T) {
	cfg := quietConfig()
	cHit, _ := newCPU(t, cfg)
	cMiss, _ := newCPU(t, cfg)

	// Same instruction count; one trace hammers a single line (hits),
	// the other strides through memory (misses).
	var hits, misses []isa.Record
	for i := 0; i < 2000; i++ {
		pc := uint64(0x400000 + i*4)
		hits = append(hits, isa.Load(pc, 0x1000))
		misses = append(misses, isa.Load(pc, uint64(0x1000+i*8192)))
	}
	rHit := cHit.Run(isa.NewSliceSource(hits), 0, 0)
	rMiss := cMiss.Run(isa.NewSliceSource(misses), 0, 0)
	if rMiss.IPC() >= rHit.IPC() {
		t.Fatalf("missy trace IPC %v should be below hitty trace IPC %v", rMiss.IPC(), rHit.IPC())
	}
	if rMiss.ROBStallCycles == 0 && rMiss.LSQStallCycles == 0 {
		t.Fatal("long misses should back-pressure dispatch via the ROB or LSQ")
	}
}

func TestDepSerializationSlowsChains(t *testing.T) {
	cfg := quietConfig()
	cInd, _ := newCPU(t, cfg)
	cDep, _ := newCPU(t, cfg)

	var ind, dep []isa.Record
	for i := 0; i < 500; i++ {
		pc := uint64(0x400000 + i*4)
		addr := uint64(0x1000 + i*8192) // all misses
		ind = append(ind, isa.Load(pc, addr))
		dep = append(dep, isa.DepLoad(pc, addr))
	}
	rInd := cInd.Run(isa.NewSliceSource(ind), 0, 0)
	rDep := cDep.Run(isa.NewSliceSource(dep), 0, 0)
	// Dependent chains lose all memory-level parallelism.
	if rDep.Cycles < rInd.Cycles*2 {
		t.Fatalf("dep chain %d cycles vs independent %d: expected >2x serialization",
			rDep.Cycles, rInd.Cycles)
	}
}

func TestBranchMispredictPenalty(t *testing.T) {
	cfg := quietConfig()
	cGood, _ := newCPU(t, cfg)
	cBad, _ := newCPU(t, cfg)

	var predictable, random []isa.Record
	rng := xrand.New(5)
	for i := 0; i < 4000; i++ {
		pc := uint64(0x400000 + (i%8)*4)
		predictable = append(predictable, isa.Branch(pc, pc+32, true))
		random = append(random, isa.Branch(pc, pc+32, rng.Bool(0.5)))
	}
	rGood := cGood.Run(isa.NewSliceSource(predictable), 0, 0)
	rBad := cBad.Run(isa.NewSliceSource(random), 0, 0)
	if rGood.BranchMispredictions >= rBad.BranchMispredictions {
		t.Fatalf("mispredictions: steady %d vs random %d", rGood.BranchMispredictions, rBad.BranchMispredictions)
	}
	if rBad.IPC() >= rGood.IPC() {
		t.Fatalf("random branches IPC %v should trail predictable %v", rBad.IPC(), rGood.IPC())
	}
}

func TestStoresDoNotBlockRetirement(t *testing.T) {
	cfg := quietConfig()
	cLoad, _ := newCPU(t, cfg)
	cStore, _ := newCPU(t, cfg)
	var loads, stores []isa.Record
	for i := 0; i < 500; i++ {
		pc := uint64(0x400000 + i*4)
		addr := uint64(0x1000 + i*8192)
		loads = append(loads, isa.Load(pc, addr))
		stores = append(stores, isa.Store(pc, addr))
	}
	rLoad := cLoad.Run(isa.NewSliceSource(loads), 0, 0)
	rStore := cStore.Run(isa.NewSliceSource(stores), 0, 0)
	// Stores drain through the store buffer: far fewer cycles than loads.
	if rStore.Cycles*2 > rLoad.Cycles {
		t.Fatalf("store trace %d cycles vs load trace %d: stores should not block",
			rStore.Cycles, rLoad.Cycles)
	}
}

func TestSoftwarePrefetchRouted(t *testing.T) {
	cfg := quietConfig()
	cfg.Prefetch.EnableSoftware = true
	c, h := newCPU(t, cfg)
	recs := []isa.Record{
		isa.Prefetch(0x400000, 0x2000),
		isa.ALU(0x400004),
	}
	res := c.Run(isa.NewSliceSource(recs), 0, 0)
	if res.SoftPF != 1 {
		t.Fatalf("soft prefetches = %d", res.SoftPF)
	}
	if h.Pf.Issued != 1 {
		t.Fatalf("prefetch not issued: %+v", h.Pf)
	}
}

func TestPortConflictCounted(t *testing.T) {
	cfg := quietConfig()
	cfg.L1.Ports = 1 // starve the memory pipeline
	c, _ := newCPU(t, cfg)
	var recs []isa.Record
	for i := 0; i < 2000; i++ {
		recs = append(recs, isa.Load(uint64(0x400000+i*4), 0x1000)) // all hits
	}
	res := c.Run(isa.NewSliceSource(recs), 0, 0)
	if res.PortConflictCycles == 0 {
		t.Fatal("1-port cache under 8-wide issue should conflict")
	}
}

func TestMorePortsHelpMemoryBoundCode(t *testing.T) {
	mk := func(ports int) Result {
		cfg := quietConfig()
		cfg.L1.Ports = ports
		c, _ := newCPU(t, cfg)
		var recs []isa.Record
		for i := 0; i < 5000; i++ {
			recs = append(recs, isa.Load(uint64(0x400000+i%64*4), uint64(0x1000+(i%128)*32)))
		}
		return c.Run(isa.NewSliceSource(recs), 0, 0)
	}
	if r1, r3 := mk(1), mk(3); r3.IPC() <= r1.IPC() {
		t.Fatalf("3 ports IPC %v should beat 1 port %v", r3.IPC(), r1.IPC())
	}
}

func TestWarmupResetsStatistics(t *testing.T) {
	cfg := quietConfig()
	c, h := newCPU(t, cfg)
	var recs []isa.Record
	for i := 0; i < 4000; i++ {
		recs = append(recs, isa.Load(uint64(0x400000+i%16*4), uint64((i%512)*32)))
	}
	res := c.Run(isa.NewSliceSource(recs), 2000, 2000)
	if res.Instructions != 2000 {
		t.Fatalf("measured instructions = %d, want 2000 after warmup", res.Instructions)
	}
	// The second half re-touches the same 512 lines, which fit the L2 but
	// not the 256-line L1 — stats must reflect only the measured half.
	if h.L1.Stats.DemandAccesses > 2100 {
		t.Fatalf("warmup accesses leaked into stats: %d", h.L1.Stats.DemandAccesses)
	}
	if res.Cycles == 0 {
		t.Fatal("cycles should count the measured phase")
	}
}

func TestLSQBackpressure(t *testing.T) {
	cfg := quietConfig()
	cfg.CPU.LSQEntries = 2
	c, _ := newCPU(t, cfg)
	var recs []isa.Record
	for i := 0; i < 200; i++ {
		recs = append(recs, isa.Load(uint64(0x400000+i*4), uint64(0x1000+i*8192)))
	}
	res := c.Run(isa.NewSliceSource(recs), 0, 0)
	if res.LSQStallCycles == 0 {
		t.Fatal("a 2-entry LSQ under a miss storm must stall dispatch")
	}
	if res.Instructions != 200 {
		t.Fatalf("all instructions must still retire: %d", res.Instructions)
	}
}

func TestPipelineDrainsOnExhaustion(t *testing.T) {
	c, _ := newCPU(t, quietConfig())
	recs := []isa.Record{isa.Load(0x400000, 0x10_000_000)} // single long miss
	res := c.Run(isa.NewSliceSource(recs), 0, 0)
	if res.Instructions != 1 {
		t.Fatalf("the pipeline must drain: retired %d", res.Instructions)
	}
	if res.Cycles < 150 {
		t.Fatalf("a memory miss should take >150 cycles, got %d", res.Cycles)
	}
}

func TestMSHRBoundThrottlesMLP(t *testing.T) {
	mk := func(mshrs int) Result {
		cfg := quietConfig()
		cfg.CPU.MSHRs = mshrs
		c, _ := newCPU(t, cfg)
		var recs []isa.Record
		for i := 0; i < 800; i++ {
			recs = append(recs, isa.Load(uint64(0x400000+i%32*4), uint64(0x1000+i*8192)))
		}
		return c.Run(isa.NewSliceSource(recs), 0, 0)
	}
	unbounded := mk(0)
	bounded := mk(1)
	if bounded.Cycles <= unbounded.Cycles {
		t.Fatalf("1 MSHR (%d cycles) must serialize misses vs unlimited (%d)",
			bounded.Cycles, unbounded.Cycles)
	}
	if bounded.MSHRStallCycles == 0 {
		t.Fatal("MSHR stalls should be counted")
	}
	if bounded.Instructions != unbounded.Instructions {
		t.Fatal("all instructions must still retire")
	}
}

func TestMSHRUnlimitedByDefault(t *testing.T) {
	cfg := quietConfig()
	if cfg.CPU.MSHRs != 0 {
		t.Fatal("the Table 1 machine leaves MSHRs unbounded")
	}
}

// TestBlockedStallsChargeOneLoadLatency checks the cycle and LSQ-stall
// totals of dispatch blocked on a full LSQ and of Dep-chained loads
// against figures derived from a single cold load, so the idle cycles the
// core jumps over are charged exactly as ticking through them would charge
// them. With every prefetcher off and one miss in flight at a time, each
// cold load takes the same d cycles from issue to completion: a lone load
// dispatched and issued at cycle 1 retires at cycle 1+d.
func TestBlockedStallsChargeOneLoadLatency(t *testing.T) {
	const n = 12
	// Distinct cold lines, 1 MiB apart: every load misses to memory.
	addr := func(i int) uint64 { return 0x10_000_000 + uint64(i)<<20 }
	pc := func(i int) uint64 { return 0x400000 + uint64(i)*4 }

	one, _ := newCPU(t, quietConfig())
	lone := one.Run(isa.NewSliceSource([]isa.Record{isa.Load(pc(0), addr(0))}), 0, 0)
	if lone.Instructions != 1 || lone.Cycles < 2 {
		t.Fatalf("one-load run: %d instructions in %d cycles", lone.Instructions, lone.Cycles)
	}
	d := lone.Cycles - 1

	// Each case keeps one miss in flight, so load k issues at 1+(k-1)d and
	// retires at 1+kd. With L LSQ entries, load k+L dispatches the cycle
	// load k retires, and every cycle from 1 until the last load dispatches
	// stalls dispatch on the LSQ: (n-L)d cycles when L < n.
	for _, tc := range []struct {
		name string
		load func(pc, addr uint64) isa.Record
		lsq  int
	}{
		{"lsq-full", isa.Load, 1},              // independent loads, one LSQ entry
		{"dep-chain", isa.DepLoad, 64},         // the chain fits in the LSQ
		{"dep-chain-lsq-full", isa.DepLoad, 4}, // held loads fill the LSQ
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quietConfig()
			cfg.CPU.LSQEntries = tc.lsq
			c, _ := newCPU(t, cfg)
			recs := make([]isa.Record, n)
			for i := range recs {
				recs[i] = tc.load(pc(i), addr(i))
			}
			res := c.Run(isa.NewSliceSource(recs), 0, 0)
			if res.Instructions != n {
				t.Fatalf("retired %d, want %d", res.Instructions, n)
			}
			if want := 1 + n*d; res.Cycles != want {
				t.Errorf("Cycles = %d, want 1+%d*%d = %d", res.Cycles, n, d, want)
			}
			if want := uint64(n-min(n, tc.lsq)) * d; res.LSQStallCycles != want {
				t.Errorf("LSQStallCycles = %d, want %d", res.LSQStallCycles, want)
			}
			if res.ROBStallCycles != 0 {
				t.Errorf("ROBStallCycles = %d, want 0", res.ROBStallCycles)
			}
		})
	}
}
