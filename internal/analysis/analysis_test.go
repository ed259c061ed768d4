package analysis

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func TestNewValidation(t *testing.T) {
	for _, n := range []int{0, 3, -32} {
		if _, err := NewAnalyzer(n); err == nil {
			t.Errorf("NewAnalyzer(%d) should fail", n)
		}
	}
}

func TestColdMissesAndFootprint(t *testing.T) {
	a, _ := NewAnalyzer(32)
	for i := uint64(0); i < 10; i++ {
		a.Touch(i * 32)
	}
	p := a.Profile()
	if p.ColdMisses != 10 || p.Footprint != 10 || p.Accesses != 10 {
		t.Fatalf("profile = %+v", p)
	}
}

func TestSameLineDistanceOne(t *testing.T) {
	a, _ := NewAnalyzer(32)
	a.Touch(0)
	a.Touch(0)
	a.Touch(4) // same 32B line
	p := a.Profile()
	// Two reuses at distance 1 → bucket 0.
	if p.Histogram[0] != 2 {
		t.Fatalf("histogram = %v", p.Histogram[:4])
	}
}

func TestKnownStackDistances(t *testing.T) {
	a, _ := NewAnalyzer(32)
	// Touch A, B, C, then A again: A's reuse distance = 3 (A,B,C distinct).
	a.Touch(0 * 32)
	a.Touch(1 * 32)
	a.Touch(2 * 32)
	a.Touch(0 * 32)
	p := a.Profile()
	// Distance 3 lands in bucket 1 ([2,4)).
	if p.Histogram[1] != 1 {
		t.Fatalf("histogram = %v", p.Histogram[:4])
	}
}

func TestCyclicSweepDistance(t *testing.T) {
	a, _ := NewAnalyzer(32)
	const lines = 64
	for rep := 0; rep < 3; rep++ {
		for i := uint64(0); i < lines; i++ {
			a.Touch(i * 32)
		}
	}
	p := a.Profile()
	// Every reuse in a cyclic sweep has distance = lines = 64 → bucket 6.
	if p.Histogram[6] != 2*lines {
		t.Fatalf("bucket 6 = %d, want %d (hist %v)", p.Histogram[6], 2*lines, p.Histogram[:8])
	}
}

func TestMissRateCurve(t *testing.T) {
	a, _ := NewAnalyzer(32)
	const lines = 64
	const reps = 10
	for rep := 0; rep < reps; rep++ {
		for i := uint64(0); i < lines; i++ {
			a.Touch(i * 32)
		}
	}
	p := a.Profile()
	// A cache >= 64 lines holds the whole loop: only cold misses.
	cold := float64(lines) / float64(lines*reps)
	if got := p.MissRate(128); got > cold+1e-9 {
		t.Fatalf("big-cache miss rate %v, want ~%v", got, cold)
	}
	// A cache of 16 lines thrashes completely under LRU cyclic access.
	if got := p.MissRate(16); got < 0.99 {
		t.Fatalf("small-cache miss rate %v, want ~1", got)
	}
}

func TestWorkingSet(t *testing.T) {
	a, _ := NewAnalyzer(32)
	const lines = 100
	for rep := 0; rep < 20; rep++ {
		for i := uint64(0); i < lines; i++ {
			a.Touch(i * 32)
		}
	}
	ws := a.Profile().WorkingSet(0.1)
	if ws < lines || ws > 4*lines {
		t.Fatalf("working set = %d lines, want ~%d", ws, lines)
	}
}

func TestBucketRange(t *testing.T) {
	if lo, hi := BucketRange(0); lo != 1 || hi != 2 {
		t.Fatalf("bucket 0 = [%d,%d)", lo, hi)
	}
	if lo, hi := BucketRange(5); lo != 32 || hi != 64 {
		t.Fatalf("bucket 5 = [%d,%d)", lo, hi)
	}
}

func TestHotBuckets(t *testing.T) {
	a, _ := NewAnalyzer(32)
	for i := 0; i < 100; i++ {
		a.Touch(0) // all reuses at distance 1
	}
	hot := a.Profile().HotBuckets(0.5)
	if len(hot) != 1 || hot[0] != 0 {
		t.Fatalf("hot buckets = %v", hot)
	}
	if (Profile{}).HotBuckets(0.5) != nil {
		t.Fatal("empty profile should have no hot buckets")
	}
}

func TestAnalyzeSourceSkipsNonMemory(t *testing.T) {
	recs := []isa.Record{
		isa.ALU(0x400000),
		isa.Load(0x400004, 0x1000),
		isa.Branch(0x400008, 0x400000, true),
		isa.Store(0x40000c, 0x1000),
		isa.Prefetch(0x400010, 0x9000), // prefetches are hints, not demand
	}
	p, err := AnalyzeSource(isa.NewSliceSource(recs), 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Accesses != 2 {
		t.Fatalf("accesses = %d, want 2 (load+store)", p.Accesses)
	}
	if p.Histogram[0] != 1 {
		t.Fatal("store should reuse the load's line at distance 1")
	}
}

// Property: counting invariants — accesses = cold + reuses, and the
// predicted miss rate is monotonically non-increasing in cache size.
func TestPropertyInvariants(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		rng := xrand.New(seed)
		a, _ := NewAnalyzer(32)
		n := int(nRaw)%2000 + 10
		for i := 0; i < n; i++ {
			a.Touch(rng.Uint64n(1 << 14))
		}
		p := a.Profile()
		var reuses uint64
		for _, c := range p.Histogram {
			reuses += c
		}
		if p.ColdMisses+reuses != p.Accesses {
			return false
		}
		prev := 1.1
		for _, lines := range []int{1, 4, 16, 64, 256, 1024, 8192} {
			mr := p.MissRate(lines)
			if mr > prev+0.02 { // allow bucket-apportioning slack
				return false
			}
			prev = mr
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPredictsWorkloadMissRates sanity-checks the analyzer against the
// simulator: the fully-associative LRU prediction at 256 lines should be
// in the same ballpark as the measured 8KB direct-mapped L1 miss rate
// (direct-mapped conflicts push the real number somewhat higher).
func TestPredictsWorkloadMissRates(t *testing.T) {
	spec, _ := workload.ByName("fpppp")
	p, err := AnalyzeSource(spec.New(1), 32, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	predicted := p.MissRate(256)
	if predicted < 0.02 || predicted > 0.2 {
		t.Fatalf("fpppp predicted L1 miss %v, want ≈0.09", predicted)
	}
}
