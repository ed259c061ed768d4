package predictor

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestSatCounterSaturation(t *testing.T) {
	c := StrongNotTaken
	for i := 0; i < 10; i++ {
		c = c.Dec()
	}
	if c != StrongNotTaken {
		t.Fatalf("Dec should saturate at 0, got %d", c)
	}
	for i := 0; i < 10; i++ {
		c = c.Inc()
	}
	if c != StrongTaken {
		t.Fatalf("Inc should saturate at 3, got %d", c)
	}
}

func TestSatCounterTakenThreshold(t *testing.T) {
	if StrongNotTaken.Taken() || WeakNotTaken.Taken() {
		t.Error("counters 0,1 must predict not-taken")
	}
	if !WeakTaken.Taken() || !StrongTaken.Taken() {
		t.Error("counters 2,3 must predict taken")
	}
}

func TestSatCounterUpdate(t *testing.T) {
	if WeakTaken.Update(true) != StrongTaken {
		t.Error("taken should increment")
	}
	if WeakTaken.Update(false) != WeakNotTaken {
		t.Error("not-taken should decrement")
	}
}

func TestSatCounterPropertyAlwaysValid(t *testing.T) {
	f := func(start uint8, steps []bool) bool {
		c := SatCounter(start % 4)
		for _, s := range steps {
			c = c.Update(s)
			if !c.Valid() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSatCounterPropertyMonotoneStep(t *testing.T) {
	// One update moves the counter by at most 1.
	f := func(start uint8, taken bool) bool {
		c := SatCounter(start % 4)
		n := c.Update(taken)
		d := int(n) - int(c)
		if d < -1 || d > 1 {
			return false
		}
		if taken && d < 0 || !taken && d > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBimodalValidation(t *testing.T) {
	for _, n := range []int{0, -1, 3, 1000} {
		if _, err := NewBimodal(n); err == nil {
			t.Errorf("NewBimodal(%d) should fail", n)
		}
	}
	if _, err := NewBimodal(2048); err != nil {
		t.Fatalf("NewBimodal(2048): %v", err)
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b, err := NewBimodal(64)
	if err != nil {
		t.Fatal(err)
	}
	pc := uint64(0x400100)
	for i := 0; i < 10; i++ {
		b.Update(pc, false)
	}
	if b.Predict(pc) {
		t.Fatal("after 10 not-taken updates, should predict not-taken")
	}
	for i := 0; i < 10; i++ {
		b.Update(pc, true)
	}
	if !b.Predict(pc) {
		t.Fatal("after 10 taken updates, should predict taken")
	}
}

func TestBimodalIndexingDistinct(t *testing.T) {
	b, _ := NewBimodal(1024)
	// Two PCs in different entries should train independently.
	pcA, pcB := uint64(0x1000), uint64(0x1004)
	for i := 0; i < 5; i++ {
		b.Update(pcA, true)
		b.Update(pcB, false)
	}
	if !b.Predict(pcA) || b.Predict(pcB) {
		t.Fatal("adjacent PCs should not interfere in a 1024-entry table")
	}
}

func TestBimodalAliasing(t *testing.T) {
	b, _ := NewBimodal(16)
	// PCs 16 entries apart share a counter (pc>>2 & 15).
	pcA := uint64(0x100)
	pcB := pcA + 16*4
	for i := 0; i < 5; i++ {
		b.Update(pcA, true)
	}
	if !b.Predict(pcB) {
		t.Fatal("aliased PC should see the trained counter")
	}
}

func TestBTBValidation(t *testing.T) {
	if _, err := NewBTB(3, 4); err == nil {
		t.Error("non-pow2 sets should fail")
	}
	if _, err := NewBTB(16, 0); err == nil {
		t.Error("zero assoc should fail")
	}
}

func TestBTBInsertLookup(t *testing.T) {
	b, err := NewBTB(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Lookup(0x1000); ok {
		t.Fatal("empty BTB should miss")
	}
	b.Insert(0x1000, 0x2000)
	if tgt, ok := b.Lookup(0x1000); !ok || tgt != 0x2000 {
		t.Fatalf("Lookup = %#x, %v", tgt, ok)
	}
	// Update in place.
	b.Insert(0x1000, 0x3000)
	if tgt, _ := b.Lookup(0x1000); tgt != 0x3000 {
		t.Fatalf("update failed: %#x", tgt)
	}
}

func TestBTBLRUEviction(t *testing.T) {
	b, _ := NewBTB(1, 2) // single set, 2 ways
	b.Insert(0x1000, 0xa)
	b.Insert(0x2000, 0xb)
	// Touch 0x1000 so 0x2000 is LRU.
	if _, ok := b.Lookup(0x1000); !ok {
		t.Fatal("0x1000 should hit")
	}
	b.Insert(0x3000, 0xc) // evicts 0x2000
	if _, ok := b.Lookup(0x2000); ok {
		t.Fatal("0x2000 should have been evicted")
	}
	if _, ok := b.Lookup(0x1000); !ok {
		t.Fatal("0x1000 should survive")
	}
	if _, ok := b.Lookup(0x3000); !ok {
		t.Fatal("0x3000 should be present")
	}
}

func TestUnitResolve(t *testing.T) {
	u, err := NewUnit(2048, 4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	pc, tgt := uint64(0x400000), uint64(0x400800)
	// First taken resolution: bimodal starts weakly-taken but BTB is cold,
	// so the redirect counts as a misprediction.
	if u.Resolve(pc, true, tgt) {
		t.Fatal("cold BTB taken branch should mispredict")
	}
	// Now the BTB knows the target.
	if !u.Resolve(pc, true, tgt) {
		t.Fatal("warm branch should predict correctly")
	}
	// Wrong cached target counts as misprediction.
	if u.Resolve(pc, true, tgt+64) {
		t.Fatal("target change should mispredict")
	}
	if u.Predictions != 3 {
		t.Fatalf("Predictions = %d", u.Predictions)
	}
	if u.Mispredictions != 2 {
		t.Fatalf("Mispredictions = %d", u.Mispredictions)
	}
}

func TestUnitAccuracy(t *testing.T) {
	u, _ := NewUnit(64, 16, 1)
	if u.Accuracy() != 1 {
		t.Fatal("idle unit should report accuracy 1")
	}
	pc := uint64(0x100)
	for i := 0; i < 100; i++ {
		u.Resolve(pc, false, 0)
	}
	if acc := u.Accuracy(); acc < 0.9 {
		t.Fatalf("steady not-taken branch accuracy %v", acc)
	}
}

func TestUnitValidation(t *testing.T) {
	if _, err := NewUnit(0, 16, 1); err == nil {
		t.Error("bad bimodal should fail")
	}
	if _, err := NewUnit(64, 0, 1); err == nil {
		t.Error("bad BTB should fail")
	}
}

// TestBTBEntryLayout pins a BTB way at three words: the tag doubles as
// the valid bit (a zero tag), so a 4-way set fits in 96 bytes. A larger
// entry costs host cache lines on every branch the core resolves.
func TestBTBEntryLayout(t *testing.T) {
	if size := unsafe.Sizeof(btbEntry{}); size > 24 {
		t.Errorf("btbEntry is %d bytes, over its 24-byte budget: a larger struct costs host cache lines on every Lookup and Insert (mark empty ways with a zero tag, not a flag)", size)
	}
}
