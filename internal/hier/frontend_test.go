package hier

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/prefetch"
)

// frontendConfig returns the small test machine with the front end
// enabled and the given instruction prefetcher.
func frontendConfig(kind config.IPrefetchKind) config.Config {
	cfg := testConfig()
	fe := config.DefaultFrontend()
	fe.IPrefetch = kind
	cfg.Frontend = &fe
	return cfg
}

// queueIPrefetch pushes one instruction-prefetch candidate straight
// into the I-queue via the submit path (filter is Null, so it passes).
func queueIPrefetch(t *testing.T, h *Hierarchy, block uint64) {
	t.Helper()
	before := h.i.Queue.Len()
	h.i.submit(h.now, prefetch.Candidate{LineAddr: block, TriggerPC: 0x40_0000, Source: core.SrcINextLine})
	if h.i.Queue.Len() != before+1 {
		t.Fatalf("candidate %#x did not enqueue", block)
	}
}

// TestIPrefetchYieldsToDemand pins the shared-L2 arbitration order
// within a cycle: demand-class accesses (D-side misses and fetch
// misses) run first and claim the single L2 port; IssueIPrefetches —
// called last — must yield when the port is busy and only take an
// otherwise-idle slot. I-side fills therefore cannot starve demand.
func TestIPrefetchYieldsToDemand(t *testing.T) {
	h := newHier(t, frontendConfig(config.IPrefetchNone), nil)
	queueIPrefetch(t, h, 0x8000)

	// Cycle 100: a D-side demand miss claims the L2 port first...
	h.DemandAccess(100, 0x40_0000, 0x1000, false)
	// ...so the I-prefetch issue pass, which runs after it, yields.
	if used := h.IssueIPrefetches(100, 4); used != 0 {
		t.Fatalf("I-prefetch issued against a demand-busy L2 port (used=%d)", used)
	}
	if h.i.Queue.Len() != 1 {
		t.Fatal("yielding must keep the candidate queued, not drop it")
	}

	// Once the port drains the prefetch goes out on the idle slot.
	idle := h.l2busyUntil + 10
	if used := h.IssueIPrefetches(idle, 4); used != 1 {
		t.Fatalf("idle-port issue used=%d, want 1", used)
	}
	if h.IPf.Issued != 1 {
		t.Fatalf("IPf.Issued = %d", h.IPf.Issued)
	}
}

// TestFetchMissClaimsPortBeforeIPrefetch pins the same order for the
// I-side's own demand class: a fetch miss is a demand access on the
// shared L2 and beats any queued instruction prefetch in its cycle.
func TestFetchMissClaimsPortBeforeIPrefetch(t *testing.T) {
	h := newHier(t, frontendConfig(config.IPrefetchNone), nil)
	queueIPrefetch(t, h, 0x8000)

	done := h.FetchAccess(100, 0x40_0000) // cold fetch miss → L2 → memory
	if done <= 100 {
		t.Fatalf("cold fetch miss completed instantly (done=%d)", done)
	}
	if h.FetchMisses != 1 || h.i.L1.Stats.DemandMisses != 1 {
		t.Fatalf("fetch miss accounting: misses=%d l1i=%+v", h.FetchMisses, h.i.L1.Stats)
	}
	if used := h.IssueIPrefetches(100, 4); used != 0 {
		t.Fatal("I-prefetch issued against a fetch-miss-busy L2 port")
	}
}

// TestIPrefetchNoBackToBackSlots pins the other half of the
// non-starvation guarantee: even with ports to spare, consecutive
// instruction prefetches never queue back-to-back L2 slots — the first
// issue makes the port busy, so the second yields to the data path.
func TestIPrefetchNoBackToBackSlots(t *testing.T) {
	h := newHier(t, frontendConfig(config.IPrefetchNone), nil)
	queueIPrefetch(t, h, 0x8000)
	queueIPrefetch(t, h, 0x8020)

	if used := h.IssueIPrefetches(100, 4); used != 1 {
		t.Fatalf("issued %d I-prefetches in one cycle, want exactly 1", used)
	}
	if h.i.Queue.Len() != 1 {
		t.Fatalf("second candidate must stay queued, len=%d", h.i.Queue.Len())
	}
	// A demand miss arriving right after waits at most one L2 occupancy
	// slot behind the single issued prefetch — never a convoy.
	start := uint64(100)
	busyBefore := h.l2busyUntil
	if busyBefore > start+l2Occupancy+uint64(h.cfg.Frontend.L1I.LatencyCycles) {
		t.Fatalf("one I-prefetch occupied the port for %d cycles", busyBefore-start)
	}
}

// TestFetchMSHRMergeWithIPrefetch pins the merge path: a fetch miss on
// a block with an instruction prefetch already in flight waits for that
// fill (not a fresh L2 walk) and installs it as a referenced prefetch,
// and the heap entry is consumed without double-classification.
func TestFetchMSHRMergeWithIPrefetch(t *testing.T) {
	h := newHier(t, frontendConfig(config.IPrefetchNone), nil)
	queueIPrefetch(t, h, 0x8000)
	if used := h.IssueIPrefetches(0, 1); used != 1 {
		t.Fatal("setup: prefetch did not issue")
	}
	fillDone := h.i.inflight[0x8000].done

	done := h.FetchAccess(5, 0x8004) // same block, mid-flight
	if done != fillDone {
		t.Fatalf("merged fetch done=%d, want the in-flight fill's %d", done, fillDone)
	}
	if h.MergedI != 1 {
		t.Fatalf("MergedI = %d", h.MergedI)
	}
	line, ok := h.i.L1.Peek(0x8000)
	if !ok || !line.PIB || !line.RIB || line.TriggerPC != 0x40_0000 {
		t.Fatalf("merged line metadata: %+v (ok=%v)", line, ok)
	}
	// Draining the heap skips the merged fill: no late-prefetch
	// misclassification, and both the heap and the in-flight set are
	// empty.
	h.Tick(^uint64(0) - 1)
	if h.IPf.Bad != 0 || h.LatePrefetches != 0 {
		t.Fatalf("merged fill misclassified: %+v late=%d", h.IPf, h.LatePrefetches)
	}
	if h.InFlight() != 0 || len(h.i.inflight) != 0 {
		t.Fatalf("I-side inflight state leaked: heap=%d set=%d", h.InFlight(), len(h.i.inflight))
	}
}
