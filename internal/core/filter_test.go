package core

import (
	"testing"
	"testing/quick"
)

func TestHistoryTableValidation(t *testing.T) {
	for _, n := range []int{0, -4, 3, 1000} {
		if _, err := NewHistoryTable(n, 2, 2, IndexDirect); err == nil {
			t.Errorf("entries=%d should fail", n)
		}
	}
	if _, err := NewHistoryTable(16, 4, 2, IndexDirect); err == nil {
		t.Error("initial>3 should fail")
	}
	if _, err := NewHistoryTable(16, 2, 5, IndexDirect); err == nil {
		t.Error("threshold>3 should fail")
	}
}

func TestHistoryTableGeometry(t *testing.T) {
	ht, err := NewHistoryTable(4096, 2, 2, IndexDirect)
	if err != nil {
		t.Fatal(err)
	}
	if ht.Entries() != 4096 {
		t.Fatalf("entries = %d", ht.Entries())
	}
	// Table 1: 4096 2-bit counters = 1KB.
	if ht.SizeBytes() != 1024 {
		t.Fatalf("size = %dB, want 1024", ht.SizeBytes())
	}
}

func TestHistoryTableInitialPrediction(t *testing.T) {
	// Counters start weakly good (2): first-touch prefetches issue (§5.3).
	ht, _ := NewHistoryTable(64, 2, 2, IndexDirect)
	for key := uint64(0); key < 200; key++ {
		if !ht.Predict(key) {
			t.Fatalf("fresh key %d should predict good", key)
		}
	}
}

func TestHistoryTableTrainsToReject(t *testing.T) {
	ht, _ := NewHistoryTable(64, 2, 2, IndexDirect)
	key := uint64(5)
	ht.Update(key, false)
	if ht.Predict(key) {
		t.Fatal("one bad feedback from weakly-good should reject")
	}
	ht.Update(key, true)
	if !ht.Predict(key) {
		t.Fatal("one good feedback should recover to weakly-good")
	}
}

func TestHistoryTableSaturates(t *testing.T) {
	ht, _ := NewHistoryTable(64, 2, 2, IndexDirect)
	key := uint64(9)
	for i := 0; i < 10; i++ {
		ht.Update(key, true)
	}
	if ht.Counter(key) != 3 {
		t.Fatalf("counter = %d, want saturated 3", ht.Counter(key))
	}
	for i := 0; i < 10; i++ {
		ht.Update(key, false)
	}
	if ht.Counter(key) != 0 {
		t.Fatalf("counter = %d, want saturated 0", ht.Counter(key))
	}
}

func TestDirectIndexAliasing(t *testing.T) {
	ht, _ := NewHistoryTable(16, 2, 2, IndexDirect)
	// Keys 16 apart share an entry under direct indexing.
	ht.Update(3, false)
	ht.Update(3, false)
	if ht.Predict(3 + 16) {
		t.Fatal("aliased key should see the trained counter")
	}
	if ht.Index(3) != ht.Index(3+16) || ht.Index(3) != ht.Index(3+32) {
		t.Fatal("direct index must wrap at table size")
	}
}

func TestHashIndexInRange(t *testing.T) {
	ht, _ := NewHistoryTable(256, 2, 2, IndexHash)
	f := func(key uint64) bool { return ht.Index(key) < 256 }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHashIndexSpreadsSequentialKeys(t *testing.T) {
	direct, _ := NewHistoryTable(256, 2, 2, IndexDirect)
	hashed, _ := NewHistoryTable(256, 2, 2, IndexHash)
	// Sequential keys occupy sequential direct entries but should spread
	// under hashing.
	seen := map[uint64]bool{}
	for k := uint64(0); k < 64; k++ {
		seen[hashed.Index(k)] = true
		if direct.Index(k) != k {
			t.Fatalf("direct index of %d = %d", k, direct.Index(k))
		}
	}
	if len(seen) < 32 {
		t.Fatalf("hash spread only %d/64 entries", len(seen))
	}
}

func TestKeyFuncs(t *testing.T) {
	if PAKey(0x1234, 0xdead) != 0x1234 {
		t.Error("PAKey must use the line address")
	}
	if PCKey(0x1234, 0x4000) != 0x1000 {
		t.Error("PCKey must use PC>>2")
	}
}

func TestNullFilter(t *testing.T) {
	n := NewNull()
	if n.Name() != "none" {
		t.Fatalf("name = %q", n.Name())
	}
	for i := 0; i < 10; i++ {
		if !n.Allow(Request{LineAddr: uint64(i)}) {
			t.Fatal("null filter must allow everything")
		}
	}
	n.Train(Feedback{Referenced: true})
	n.Train(Feedback{Referenced: false})
	n.Train(Feedback{Referenced: false})
	s := n.Stats()
	if s.Queries != 10 || s.Rejected != 0 || s.TrainGood != 1 || s.TrainBad != 2 {
		t.Fatalf("stats = %+v", s)
	}
	n.ResetStats()
	if n.Stats() != (Stats{}) {
		t.Fatal("reset should zero stats")
	}
}

func TestPAFilterLifecycle(t *testing.T) {
	f, err := NewPA(64, 2, 2, IndexDirect)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "pa" {
		t.Fatalf("name = %q", f.Name())
	}
	req := Request{LineAddr: 100, TriggerPC: 0x400000}
	if !f.Allow(req) {
		t.Fatal("fresh key should be allowed")
	}
	// A bad eviction rejects the line address…
	f.Train(Feedback{LineAddr: 100, TriggerPC: 0x400000, Referenced: false})
	if f.Allow(req) {
		t.Fatal("bad-trained line should be rejected")
	}
	// …but the decision keys on the address, not the PC.
	if !f.Allow(Request{LineAddr: 101, TriggerPC: 0x400000}) {
		t.Fatal("a different line from the same PC must pass the PA filter")
	}
	s := f.Stats()
	if s.Queries != 3 || s.Rejected != 1 || s.TrainBad != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPCFilterLifecycle(t *testing.T) {
	f, err := NewPC(64, 2, 2, IndexDirect)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "pc" {
		t.Fatalf("name = %q", f.Name())
	}
	f.Train(Feedback{LineAddr: 100, TriggerPC: 0x400000, Referenced: false})
	// Same PC, any line: rejected.
	if f.Allow(Request{LineAddr: 999, TriggerPC: 0x400000}) {
		t.Fatal("bad-trained PC should reject all its prefetches")
	}
	// Different PC in a different table entry: allowed. (0x400100 would
	// alias with 0x400000 in a 64-entry table: (pc>>2)&63 is equal.)
	if !f.Allow(Request{LineAddr: 100, TriggerPC: 0x400104}) {
		t.Fatal("other PCs must pass")
	}
}

func TestFilterRecoveryViaGoodFeedback(t *testing.T) {
	f, _ := NewPA(64, 2, 2, IndexDirect)
	f.Train(Feedback{LineAddr: 7, Referenced: false})
	if f.Allow(Request{LineAddr: 7}) {
		t.Fatal("should reject after bad training")
	}
	// An aliased key (7+64) trains the shared counter back up: the escape
	// mechanism that keeps the filter from permanently blacklisting
	// entries (§4.1's aliasing).
	f.Train(Feedback{LineAddr: 7 + 64, Referenced: true})
	if !f.Allow(Request{LineAddr: 7}) {
		t.Fatal("aliased good feedback should resurrect the entry")
	}
}

func TestCustomTableFilter(t *testing.T) {
	xor := func(lineAddr, triggerPC uint64) uint64 { return lineAddr ^ (triggerPC >> 2) }
	f, err := NewTableFilter("xor", xor, 64, 2, 2, IndexDirect)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "xor" {
		t.Fatalf("name = %q", f.Name())
	}
	f.Train(Feedback{LineAddr: 8, TriggerPC: 16, Referenced: false})
	if f.Allow(Request{LineAddr: 8, TriggerPC: 16}) {
		t.Fatal("same (addr,pc) pair should reject")
	}
	if !f.Allow(Request{LineAddr: 8, TriggerPC: 20}) {
		t.Fatal("different pair should pass")
	}
	if _, err := NewTableFilter("nil", nil, 64, 2, 2, IndexDirect); err == nil {
		t.Fatal("nil key func should fail")
	}
}

func TestTableFilterResetKeepsTableWarm(t *testing.T) {
	f, _ := NewPA(64, 2, 2, IndexDirect)
	f.Train(Feedback{LineAddr: 3, Referenced: false})
	f.ResetStats()
	if f.Stats() != (Stats{}) {
		t.Fatal("stats should be zero")
	}
	if f.Allow(Request{LineAddr: 3}) {
		t.Fatal("history table must stay warm across a stats reset")
	}
}

func TestRejectRate(t *testing.T) {
	var s Stats
	if s.RejectRate() != 0 {
		t.Fatal("idle reject rate should be 0")
	}
	s.Queries, s.Rejected = 4, 1
	if s.RejectRate() != 0.25 {
		t.Fatalf("reject rate = %v", s.RejectRate())
	}
}

// Property: a TableFilter's decision depends only on its key's counter —
// training key A never changes decisions for a key in a different entry.
func TestPropertyKeyIsolation(t *testing.T) {
	f := func(a, b uint16) bool {
		if a%64 == b%64 {
			return true // same entry: interference allowed
		}
		flt, _ := NewPA(64, 2, 2, IndexDirect)
		flt.Train(Feedback{LineAddr: uint64(a), Referenced: false})
		flt.Train(Feedback{LineAddr: uint64(a), Referenced: false})
		return flt.Allow(Request{LineAddr: uint64(b)})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the filter's Train/Allow sequence is deterministic.
func TestPropertyDeterminism(t *testing.T) {
	f := func(keys []uint16, outcomes []bool) bool {
		f1, _ := NewPC(128, 2, 2, IndexDirect)
		f2, _ := NewPC(128, 2, 2, IndexDirect)
		for i, k := range keys {
			ref := i < len(outcomes) && outcomes[i]
			fb := Feedback{LineAddr: uint64(k), TriggerPC: uint64(k) * 4, Referenced: ref}
			f1.Train(fb)
			f2.Train(fb)
			r := Request{LineAddr: uint64(k), TriggerPC: uint64(k) * 4}
			if f1.Allow(r) != f2.Allow(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProbationSampling(t *testing.T) {
	f, _ := NewPA(64, 2, 2, IndexDirect)
	f.SetProbation(4)
	// Train key 9 bad so it always rejects.
	f.Train(Feedback{LineAddr: 9, Referenced: false})
	f.Train(Feedback{LineAddr: 9, Referenced: false})
	allowed := 0
	for i := 0; i < 16; i++ {
		if f.Allow(Request{LineAddr: 9}) {
			allowed++
		}
	}
	// Every 4th rejection converts to a probationary issue: 4 of 16.
	if allowed != 4 {
		t.Fatalf("probation allowed %d of 16, want 4", allowed)
	}
	if f.ProbeAllows != 4 {
		t.Fatalf("ProbeAllows = %d", f.ProbeAllows)
	}
}

func TestProbationDisabledByDefault(t *testing.T) {
	f, _ := NewPA(64, 2, 2, IndexDirect)
	f.Train(Feedback{LineAddr: 9, Referenced: false})
	for i := 0; i < 100; i++ {
		if f.Allow(Request{LineAddr: 9}) {
			t.Fatal("paper-default filter must be purely absorbing")
		}
	}
}
