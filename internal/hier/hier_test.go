package hier

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// testConfig returns a small machine with hardware prefetching off, so
// tests can inject prefetches deliberately via the filter path.
func testConfig() config.Config {
	cfg := config.Default()
	cfg.Prefetch.EnableNSP = false
	cfg.Prefetch.EnableSDP = false
	cfg.Prefetch.EnableSoftware = true
	return cfg
}

func newHier(t *testing.T, cfg config.Config, f core.Filter) *Hierarchy {
	t.Helper()
	if f == nil {
		f = core.NewNull()
	}
	h, err := New(cfg, f, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewValidation(t *testing.T) {
	bad := config.Default()
	bad.L1.SizeBytes = 0
	if _, err := New(bad, core.NewNull(), nil); err == nil {
		t.Fatal("invalid config should fail")
	}
	if _, err := New(config.Default(), nil, nil); err == nil {
		t.Fatal("nil filter should fail")
	}
}

func TestDemandHitLatency(t *testing.T) {
	h := newHier(t, testConfig(), nil)
	h.DemandAccess(10, 0x400000, 0x1000, false) // cold miss fills the line
	done := h.DemandAccess(500, 0x400000, 0x1000, false)
	if done != 500+uint64(h.Config().L1.LatencyCycles) {
		t.Fatalf("hit latency = %d", done-500)
	}
	if h.L1.Stats.DemandHits != 1 || h.L1.Stats.DemandMisses != 1 {
		t.Fatalf("stats = %+v", h.L1.Stats)
	}
}

func TestDemandMissGoesToMemory(t *testing.T) {
	h := newHier(t, testConfig(), nil)
	done := h.DemandAccess(0, 0x400000, 0x1000, false)
	// Cold miss: L1(1) + L2 miss(15) + memory(150) + bus — at least 166.
	if done < 166 {
		t.Fatalf("cold miss completed too fast: %d", done)
	}
	if h.Traffic.MemAccesses != 1 || h.L2.Stats.DemandMisses != 1 {
		t.Fatalf("traffic = %+v", h.Traffic)
	}
}

func TestDemandMissL2Hit(t *testing.T) {
	h := newHier(t, testConfig(), nil)
	h.DemandAccess(0, 0x400000, 0x1000, false)
	// Evict from the tiny direct-mapped L1 by touching the conflicting set.
	h.DemandAccess(1000, 0x400000, 0x1000+8192, false)
	// Now the original line is L2-resident only.
	done := h.DemandAccess(2000, 0x400000, 0x1000, false)
	lat := done - 2000
	if lat < 16 || lat > 30 {
		t.Fatalf("L2 hit latency = %d, want ~16-18", lat)
	}
	if h.L2.Stats.DemandHits != 1 {
		t.Fatalf("L2 stats = %+v", h.L2.Stats)
	}
}

func TestStoreSetsDirtyAndWritesBack(t *testing.T) {
	h := newHier(t, testConfig(), nil)
	h.DemandAccess(0, 0x400000, 0x1000, true)
	line, ok := h.L1.Peek(h.LineAddr(0x1000))
	if !ok || !line.Dirty {
		t.Fatal("store should dirty the line")
	}
	// Conflict eviction triggers a writeback into the L2.
	h.DemandAccess(1000, 0x400000, 0x1000+8192, false)
	if h.L1.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d", h.L1.Stats.Writebacks)
	}
	l2line, ok := h.L2.Peek(h.LineAddr(0x1000))
	if !ok || !l2line.Dirty {
		t.Fatal("writeback must land dirty in the L2")
	}
}

func TestSoftwarePrefetchFlow(t *testing.T) {
	h := newHier(t, testConfig(), nil)
	h.SoftwarePrefetch(0, 0x400000, 0x2000)
	if h.Queue.Len() != 1 {
		t.Fatalf("queue len = %d", h.Queue.Len())
	}
	// Issue it and let it complete.
	used := h.IssuePrefetches(1, 3)
	if used != 1 {
		t.Fatalf("ports used = %d", used)
	}
	if h.InFlight() != 1 {
		t.Fatalf("in flight = %d", h.InFlight())
	}
	h.Tick(10_000)
	if h.InFlight() != 0 {
		t.Fatal("fill should have completed")
	}
	line, ok := h.L1.Peek(h.LineAddr(0x2000))
	if !ok || !line.PIB || line.RIB || line.TriggerPC != 0x400000 || !line.SoftPF {
		t.Fatalf("prefetched line metadata: %+v", line)
	}
	if h.Pf.Issued != 1 {
		t.Fatalf("issued = %d", h.Pf.Issued)
	}
}

func TestSoftwarePrefetchDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.Prefetch.EnableSoftware = false
	h := newHier(t, cfg, nil)
	h.SoftwarePrefetch(0, 0x400000, 0x2000)
	if h.Queue.Len() != 0 {
		t.Fatal("disabled software prefetch must be ignored")
	}
}

func TestFilterRejectTerminatesPrefetch(t *testing.T) {
	f, _ := core.NewPA(64, 2, 2, core.IndexDirect)
	h := newHier(t, testConfig(), f)
	la := h.LineAddr(0x2000)
	// Train the line bad.
	f.Train(core.Feedback{LineAddr: la, Referenced: false})
	h.SoftwarePrefetch(0, 0x400000, 0x2000)
	if h.Queue.Len() != 0 {
		t.Fatal("rejected prefetch must not enter the queue")
	}
	if h.Pf.Filtered != 1 {
		t.Fatalf("filtered = %d", h.Pf.Filtered)
	}
}

func TestGoodPrefetchClassification(t *testing.T) {
	h := newHier(t, testConfig(), nil)
	h.SoftwarePrefetch(0, 0x400000, 0x2000)
	h.IssuePrefetches(1, 3)
	h.Tick(10_000)
	// Demand-reference the prefetched line: RIB set.
	h.DemandAccess(10_001, 0x400100, 0x2000, false)
	line, _ := h.L1.Peek(h.LineAddr(0x2000))
	if !line.RIB {
		t.Fatal("demand reference must set RIB")
	}
	// Evict it via the conflicting set: classifies good.
	h.DemandAccess(20_000, 0x400200, 0x2000+8192, false)
	if h.Pf.Good != 1 || h.Pf.Bad != 0 {
		t.Fatalf("classification = %+v", h.Pf)
	}
	// The filter was trained with Referenced=true.
	if h.Filter.Stats().TrainGood != 1 {
		t.Fatalf("filter stats = %+v", h.Filter.Stats())
	}
}

func TestBadPrefetchClassification(t *testing.T) {
	h := newHier(t, testConfig(), nil)
	h.SoftwarePrefetch(0, 0x400000, 0x2000)
	h.IssuePrefetches(1, 3)
	h.Tick(10_000)
	// Evict without ever referencing: bad.
	h.DemandAccess(20_000, 0x400200, 0x2000+8192, false)
	if h.Pf.Bad != 1 || h.Pf.Good != 0 {
		t.Fatalf("classification = %+v", h.Pf)
	}
	if h.Filter.Stats().TrainBad != 1 {
		t.Fatalf("filter stats = %+v", h.Filter.Stats())
	}
}

func TestMSHRMergeClassifiesGood(t *testing.T) {
	h := newHier(t, testConfig(), nil)
	h.SoftwarePrefetch(0, 0x400000, 0x2000)
	h.IssuePrefetches(1, 3)
	// Demand the line while the prefetch is still in flight.
	done := h.DemandAccess(2, 0x400100, 0x2000, false)
	if h.Merged != 1 {
		t.Fatalf("merged = %d", h.Merged)
	}
	if done < 10 {
		t.Fatalf("merged demand should wait for the fill, done=%d", done)
	}
	line, ok := h.L1.Peek(h.LineAddr(0x2000))
	if !ok || !line.PIB || !line.RIB {
		t.Fatalf("merged line should be a referenced prefetch: %+v", line)
	}
	// Completing the original fill must not double-install or classify.
	h.Tick(100_000)
	if h.LatePrefetches != 0 || h.Pf.Bad != 0 {
		t.Fatalf("merge misclassified: late=%d pf=%+v", h.LatePrefetches, h.Pf)
	}
}

func TestLatePrefetchClassifiedBad(t *testing.T) {
	h := newHier(t, testConfig(), nil)
	h.SoftwarePrefetch(10, 0x400000, 0x3000)
	h.IssuePrefetches(11, 3)
	// A demand miss in flight would merge with the prefetch, so install
	// the line underneath the still-live fill directly: when the fill
	// lands, the line is already resident and the prefetch is late.
	h.side.fill(h.LineAddr(0x3000), false)
	h.Tick(100_000)
	if h.LatePrefetches != 1 || h.Pf.Bad != 1 {
		t.Fatalf("late = %d, pf = %+v", h.LatePrefetches, h.Pf)
	}
	if len(h.inflight) != 0 {
		t.Fatalf("late fill left %d in-flight entries", len(h.inflight))
	}
}

func TestDuplicateSquashResident(t *testing.T) {
	h := newHier(t, testConfig(), nil)
	h.DemandAccess(0, 0x400000, 0x2000, false) // line now L1-resident
	h.SoftwarePrefetch(10, 0x400000, 0x2000)
	if h.Queue.Len() != 0 || h.Pf.Squashed != 1 {
		t.Fatalf("resident duplicate not squashed: queue=%d squashed=%d", h.Queue.Len(), h.Pf.Squashed)
	}
}

func TestDuplicateSquashQueued(t *testing.T) {
	h := newHier(t, testConfig(), nil)
	h.SoftwarePrefetch(0, 0x400000, 0x2000)
	h.SoftwarePrefetch(1, 0x400004, 0x2000)
	if h.Queue.Len() != 1 || h.Pf.Squashed != 1 {
		t.Fatalf("queued duplicate not squashed: queue=%d squashed=%d", h.Queue.Len(), h.Pf.Squashed)
	}
}

func TestDuplicateSquashInFlight(t *testing.T) {
	h := newHier(t, testConfig(), nil)
	h.SoftwarePrefetch(0, 0x400000, 0x2000)
	h.IssuePrefetches(1, 3)
	h.SoftwarePrefetch(2, 0x400004, 0x2000)
	if h.Queue.Len() != 0 || h.Pf.Squashed != 1 {
		t.Fatalf("in-flight duplicate not squashed: queue=%d squashed=%d", h.Queue.Len(), h.Pf.Squashed)
	}
}

func TestIssueRespectsPortBudget(t *testing.T) {
	h := newHier(t, testConfig(), nil)
	for i := 0; i < 10; i++ {
		h.SoftwarePrefetch(0, 0x400000+uint64(i)*4, uint64(0x2000+i*64))
	}
	if used := h.IssuePrefetches(1, 2); used != 2 {
		t.Fatalf("used = %d, want 2", used)
	}
	if h.Queue.Len() != 8 {
		t.Fatalf("queue len = %d", h.Queue.Len())
	}
	if used := h.IssuePrefetches(2, 0); used != 0 {
		t.Fatal("zero ports must issue nothing")
	}
}

func TestFinishClassifiesResidents(t *testing.T) {
	h := newHier(t, testConfig(), nil)
	// Two prefetches: one referenced, one not.
	h.SoftwarePrefetch(0, 0x400000, 0x2000)
	h.SoftwarePrefetch(0, 0x400004, 0x3000)
	h.IssuePrefetches(1, 3)
	h.Tick(100_000)
	h.DemandAccess(100_001, 0x400100, 0x2000, false) // reference the first
	h.Finish()
	if h.Pf.Good != 1 || h.Pf.Bad != 1 {
		t.Fatalf("finish classification: %+v", h.Pf)
	}
	if h.Pf.ResidentGood != 1 || h.Pf.ResidentBad != 1 {
		t.Fatalf("resident accounting: %+v", h.Pf)
	}
}

// TestConservationGoodPlusBadEqualsIssued drives random demand (and,
// with the front end on, jumpy fetch) streams through the hierarchy and
// checks that each side classifies every issued prefetch exactly once,
// and that BySource accounts for every issue on both sides.
func TestConservationGoodPlusBadEqualsIssued(t *testing.T) {
	buffered := config.Default()
	buffered.Buffer.Enable = true
	frontended := config.Default() // hardware prefetchers on, both sides
	fe := config.DefaultFrontend()
	fe.IPrefetch = config.IPrefetchNextLine
	frontended.Frontend = &fe
	// The front-end case thins the demand stream: D-side misses claim
	// the shared L2 port first, and instruction prefetches issue only on
	// an idle port.
	for _, tc := range []struct {
		name        string
		cfg         config.Config
		demandEvery int
	}{
		{"d-only", config.Default(), 1},
		{"d-buffer", buffered, 1},
		{"frontend", frontended, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHier(t, tc.cfg, nil)
			rng := xrand.New(42)
			cycle := uint64(0)
			pc := uint64(0x40_0000)
			for i := 0; i < 20000; i++ {
				cycle += 2
				h.Tick(cycle)
				if h.FrontendEnabled() {
					if done := h.FetchAccess(cycle, pc); done > cycle {
						cycle = done // front end stalls on the miss
					}
					if rng.Bool(0.1) { // taken branch: jump among a few hot regions
						pc = 0x40_0000 + rng.Uint64n(64)*1024
					} else {
						pc += 4
					}
				}
				if i%tc.demandEvery == 0 {
					h.DemandAccess(cycle, 0x400000+rng.Uint64n(256)*4, rng.Uint64n(1<<20), rng.Bool(0.2))
				}
				h.IssuePrefetches(cycle, 2)
				h.IssueIPrefetches(cycle, 1)
			}
			h.Finish()
			for _, side := range []struct {
				name string
				pf   stats.Prefetches
			}{{"d", h.Pf}, {"i", h.IPf}} {
				if got := side.pf.Good + side.pf.Bad; got != side.pf.Issued {
					t.Errorf("%s-side classified %d != issued %d (%+v, late=%d)",
						side.name, got, side.pf.Issued, side.pf, h.LatePrefetches)
				}
			}
			if h.Pf.Issued == 0 || h.FrontendEnabled() != (h.IPf.Issued > 0) {
				t.Fatalf("stream too tame to test anything: pf=%+v ipf=%+v", h.Pf, h.IPf)
			}
			var sum uint64
			for _, n := range h.BySource {
				sum += n
			}
			if sum != h.Pf.Issued+h.IPf.Issued {
				t.Fatalf("sum(BySource) = %d, want %d issued: %v", sum, h.Pf.Issued+h.IPf.Issued, h.BySource)
			}
		})
	}
}

func TestBufferModePromotion(t *testing.T) {
	cfg := testConfig()
	cfg.Buffer.Enable = true
	h := newHier(t, cfg, nil)
	if h.Buffer == nil {
		t.Fatal("buffer should be built")
	}
	h.SoftwarePrefetch(0, 0x400000, 0x2000)
	h.IssuePrefetches(1, 3)
	h.Tick(100_000)
	if h.L1.Contains(h.LineAddr(0x2000)) {
		t.Fatal("buffer mode must not fill the L1 with prefetches")
	}
	if !h.Buffer.Contains(h.LineAddr(0x2000)) {
		t.Fatal("prefetch should land in the buffer")
	}
	// Demand hit in the buffer promotes into L1 and classifies good.
	done := h.DemandAccess(100_001, 0x400100, 0x2000, false)
	if done != 100_001+uint64(cfg.L1.LatencyCycles) {
		t.Fatalf("buffer hit latency = %d", done-100_001)
	}
	if !h.L1.Contains(h.LineAddr(0x2000)) {
		t.Fatal("promotion should install in the L1")
	}
	if h.Pf.Good != 1 {
		t.Fatalf("promotion should classify good: %+v", h.Pf)
	}
}

func TestResetStats(t *testing.T) {
	h := newHier(t, config.Default(), nil)
	rng := xrand.New(44)
	for i := uint64(0); i < 5000; i++ {
		h.Tick(i * 2)
		h.DemandAccess(i*2, 0x400000, rng.Uint64n(1<<20), false)
		h.IssuePrefetches(i*2, 2)
	}
	resident := h.L1.ValidLines()
	h.ResetStats()
	if h.Pf != (Hierarchy{}).Pf || h.Traffic.DemandAccesses != 0 {
		t.Fatalf("stats not reset: %+v", h.Pf)
	}
	if h.L1.Stats.DemandAccesses != 0 || h.L2.Stats.DemandAccesses != 0 {
		t.Fatal("cache stats not reset")
	}
	if h.L1.ValidLines() != resident {
		t.Fatal("reset must not flush the cache")
	}
}

func TestNSPChainThroughHierarchy(t *testing.T) {
	cfg := config.Default()
	cfg.Prefetch.EnableSDP = false
	cfg.Prefetch.EnableSoftware = false
	h := newHier(t, cfg, nil)
	// A miss on line 0x1000 should generate an NSP candidate for the next
	// line and queue it.
	h.DemandAccess(0, 0x400000, 0x1000, false)
	if h.Queue.Len() != 1 {
		t.Fatalf("NSP did not queue: len=%d", h.Queue.Len())
	}
	c, _ := h.Queue.Front()
	if c.LineAddr != h.LineAddr(0x1000)+1 || c.Source != core.SrcNSP {
		t.Fatalf("candidate = %+v", c)
	}
}

func TestPrefetchTrafficTagged(t *testing.T) {
	h := newHier(t, testConfig(), nil)
	h.SoftwarePrefetch(0, 0x400000, 0x2000)
	h.IssuePrefetches(1, 3)
	if h.Traffic.PrefetchAccesses != 1 || h.Traffic.PrefetchL2 != 1 || h.Traffic.PrefetchMem != 1 {
		t.Fatalf("traffic = %+v", h.Traffic)
	}
	h.Finish()
	if len(h.BySource) != 1 || h.BySource["sw"] != 1 {
		t.Fatalf("by source = %+v", h.BySource)
	}
}

func TestQueueOverflowCounted(t *testing.T) {
	cfg := testConfig()
	cfg.Prefetch.QueueEntries = 2
	h := newHier(t, cfg, nil)
	for i := 0; i < 5; i++ {
		h.SoftwarePrefetch(0, uint64(0x400000+i*4), uint64(0x2000+i*64))
	}
	if h.Pf.Overflow != 3 {
		t.Fatalf("overflow = %d, want 3", h.Pf.Overflow)
	}
}

func TestFinishCountsUnissuedQueueAsOverflow(t *testing.T) {
	h := newHier(t, testConfig(), nil)
	h.SoftwarePrefetch(0, 0x400000, 0x2000)
	h.SoftwarePrefetch(0, 0x400004, 0x3000)
	h.Finish() // never issued
	if h.Pf.Overflow != 2 {
		t.Fatalf("unissued prefetches should count as overflow: %+v", h.Pf)
	}
	if h.Pf.Classified() != 0 {
		t.Fatal("unissued prefetches must not classify")
	}
}

func TestDeadBlockWiring(t *testing.T) {
	cfg := testConfig()
	cfg.Filter.Kind = config.FilterDeadBlock
	h := newHier(t, cfg, nil)
	if h.Dead == nil {
		t.Fatal("dead-block predictor should be built")
	}
	// Fill the target set with a live (freshly accessed) line; a prefetch
	// into the conflicting line must be gated.
	h.DemandAccess(0, 0x400000, 0x2000, false)
	h.SoftwarePrefetch(10, 0x400004, 0x2000+8192)
	if h.DeadGated != 1 || h.Queue.Len() != 0 {
		t.Fatalf("gate: DeadGated=%d queue=%d", h.DeadGated, h.Queue.Len())
	}
	// A prefetch into an empty set passes.
	h.SoftwarePrefetch(11, 0x400008, 0x2000+64)
	if h.Queue.Len() != 1 {
		t.Fatal("free-frame prefetch should pass the gate")
	}
}

func TestL2HitPrefetchFasterThanMemory(t *testing.T) {
	h := newHier(t, testConfig(), nil)
	// Warm the L2 with the line, then evict from L1.
	h.DemandAccess(0, 0x400000, 0x2000, false)
	h.DemandAccess(1000, 0x400000, 0x2000+8192, false)
	// Prefetch the line back: should come from the L2, not memory.
	h.SoftwarePrefetch(2000, 0x400004, 0x2000)
	h.IssuePrefetches(2001, 3)
	before := h.Traffic.MemAccesses
	h.Tick(100_000)
	if h.Traffic.MemAccesses != before {
		t.Fatal("L2-resident prefetch must not touch memory")
	}
	if !h.L1.Contains(h.LineAddr(0x2000)) {
		t.Fatal("prefetch should have filled the L1")
	}
}

func TestVictimCacheRescue(t *testing.T) {
	cfg := testConfig()
	cfg.VictimEntries = 4
	h := newHier(t, cfg, nil)
	if h.Victim == nil {
		t.Fatal("victim cache should be built")
	}
	// Fill a line, evict it via a conflict, then re-demand it: the victim
	// cache must rescue it without an L2 access.
	h.DemandAccess(0, 0x400000, 0x2000, true) // dirty
	h.DemandAccess(1000, 0x400004, 0x2000+8192, false)
	if !h.Victim.Contains(h.LineAddr(0x2000)) {
		t.Fatal("eviction should land in the victim cache")
	}
	l2Before := h.L2.Stats.DemandAccesses
	done := h.DemandAccess(2000, 0x400008, 0x2000, false)
	if done != 2000+uint64(cfg.L1.LatencyCycles)+1 {
		t.Fatalf("victim rescue latency = %d", done-2000)
	}
	if h.L2.Stats.DemandAccesses != l2Before {
		t.Fatal("victim hit must not touch the L2")
	}
	line, ok := h.L1.Peek(h.LineAddr(0x2000))
	if !ok || !line.Dirty {
		t.Fatal("rescued line must return dirty")
	}
}

func TestVictimCacheDirtyWriteback(t *testing.T) {
	cfg := testConfig()
	cfg.VictimEntries = 1
	h := newHier(t, cfg, nil)
	h.DemandAccess(0, 0x400000, 0x2000, true)         // dirty line A
	h.DemandAccess(100, 0x400004, 0x2000+8192, false) // A -> victim cache
	h.DemandAccess(200, 0x400008, 0x3000, false)
	h.DemandAccess(300, 0x40000c, 0x3000+8192, false) // B evicts A from VC
	// A's dirty data must have reached the L2.
	l2line, ok := h.L2.Peek(h.LineAddr(0x2000))
	if !ok || !l2line.Dirty {
		t.Fatal("victim-cache eviction must write back dirty data")
	}
}

func TestVictimClassificationUnchanged(t *testing.T) {
	// The filter's verdict is rendered at L1 eviction regardless of the
	// victim cache below it.
	cfg := testConfig()
	cfg.VictimEntries = 4
	h := newHier(t, cfg, nil)
	h.SoftwarePrefetch(0, 0x400000, 0x2000)
	h.IssuePrefetches(1, 3)
	h.Tick(10_000)
	h.DemandAccess(20_000, 0x400200, 0x2000+8192, false) // evict unreferenced
	if h.Pf.Bad != 1 {
		t.Fatalf("classification must happen at L1 eviction: %+v", h.Pf)
	}
}
