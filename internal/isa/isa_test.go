package isa

import (
	"strings"
	"testing"
)

func TestOpStrings(t *testing.T) {
	cases := map[Op]string{
		OpALU:      "alu",
		OpLoad:     "load",
		OpStore:    "store",
		OpBranch:   "branch",
		OpPrefetch: "prefetch",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", op, got, want)
		}
	}
	if s := Op(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown op string %q", s)
	}
}

func TestOpValid(t *testing.T) {
	for _, op := range []Op{OpALU, OpLoad, OpStore, OpBranch, OpPrefetch} {
		if !op.Valid() {
			t.Errorf("%v should be valid", op)
		}
	}
	if Op(200).Valid() || opSentinel.Valid() {
		t.Error("out-of-range ops should be invalid")
	}
}

func TestIsMem(t *testing.T) {
	mem := map[Op]bool{
		OpALU: false, OpLoad: true, OpStore: true, OpBranch: false, OpPrefetch: true,
	}
	for op, want := range mem {
		if got := op.IsMem(); got != want {
			t.Errorf("%v.IsMem() = %v, want %v", op, got, want)
		}
	}
}

func TestConstructors(t *testing.T) {
	if r := ALU(0x1000); r.Op != OpALU || r.PC != 0x1000 {
		t.Errorf("ALU: %+v", r)
	}
	if r := Load(0x1000, 0x2000); r.Op != OpLoad || r.Addr != 0x2000 {
		t.Errorf("Load: %+v", r)
	}
	if r := Store(0x1000, 0x2000); r.Op != OpStore {
		t.Errorf("Store: %+v", r)
	}
	if r := Branch(0x1000, 0x3000, true); r.Op != OpBranch || !r.Taken || r.Addr != 0x3000 {
		t.Errorf("Branch: %+v", r)
	}
	if r := Prefetch(0x1000, 0x2000); r.Op != OpPrefetch {
		t.Errorf("Prefetch: %+v", r)
	}
	if r := DepLoad(0x1000, 0x2000); r.Op != OpLoad || !r.Dep {
		t.Errorf("DepLoad: %+v", r)
	}
}

func TestRecordValidate(t *testing.T) {
	if err := Load(0x1000, 4).Validate(); err != nil {
		t.Errorf("aligned record: %v", err)
	}
	if err := (Record{Op: Op(99), PC: 0}).Validate(); err == nil {
		t.Error("invalid op should fail")
	}
	if err := Load(0x1001, 4).Validate(); err == nil {
		t.Error("misaligned PC should fail")
	}
}

func TestSliceSource(t *testing.T) {
	recs := []Record{ALU(4), Load(8, 100), Store(12, 200)}
	s := NewSliceSource(recs)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i, want := range recs {
		got, ok := s.Next()
		if !ok || got != want {
			t.Fatalf("record %d: got %+v ok=%v", i, got, ok)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted source should return false")
	}
	s.Reset()
	if r, ok := s.Next(); !ok || r != recs[0] {
		t.Fatal("Reset should rewind")
	}
}

func TestFuncSource(t *testing.T) {
	n := 0
	f := FuncSource(func() (Record, bool) {
		if n >= 2 {
			return Record{}, false
		}
		n++
		return ALU(uint64(n) * 4), true
	})
	if got := len(Collect(f, 0)); got != 2 {
		t.Fatalf("got %d records", got)
	}
}

func TestCollectMax(t *testing.T) {
	s := NewSliceSource([]Record{ALU(4), ALU(8), ALU(12), ALU(16)})
	if got := len(Collect(s, 2)); got != 2 {
		t.Fatalf("Collect max 2 got %d", got)
	}
}

func TestInterleaveValidation(t *testing.T) {
	if _, err := NewInterleaveSource(0, NewSliceSource(nil)); err == nil {
		t.Fatal("zero quantum should fail")
	}
	if _, err := NewInterleaveSource(10); err == nil {
		t.Fatal("no sources should fail")
	}
}

func TestInterleaveRoundRobin(t *testing.T) {
	a := NewSliceSource([]Record{ALU(0x100), ALU(0x104), ALU(0x108), ALU(0x10c)})
	b := NewSliceSource([]Record{ALU(0x200), ALU(0x204), ALU(0x208), ALU(0x20c)})
	s, err := NewInterleaveSource(2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(s, 0)
	wantPCs := []uint64{0x100, 0x104, 0x200, 0x204, 0x108, 0x10c, 0x208, 0x20c}
	if len(got) != len(wantPCs) {
		t.Fatalf("collected %d records", len(got))
	}
	for i, w := range wantPCs {
		if got[i].PC != w {
			t.Fatalf("record %d PC = %#x, want %#x (%v)", i, got[i].PC, w, got)
		}
	}
}

func TestInterleaveSkipsExhausted(t *testing.T) {
	a := NewSliceSource([]Record{ALU(0x100)})
	b := NewSliceSource([]Record{ALU(0x200), ALU(0x204), ALU(0x208)})
	s, _ := NewInterleaveSource(2, a, b)
	got := Collect(s, 0)
	if len(got) != 4 {
		t.Fatalf("collected %d records, want 4", len(got))
	}
	// After a exhausts, the rest come from b.
	for _, r := range got[1:] {
		if r.PC < 0x200 {
			t.Fatalf("record from exhausted source: %+v", r)
		}
	}
}

func TestInterleaveSingleSource(t *testing.T) {
	a := NewSliceSource([]Record{ALU(0x100), ALU(0x104)})
	s, _ := NewInterleaveSource(1, a)
	if got := len(Collect(s, 0)); got != 2 {
		t.Fatalf("got %d", got)
	}
}

// batchSlice is a SliceSource that also hands over records in batches
// of at most 2, counting its NextBatch calls.
type batchSlice struct {
	SliceSource
	batches int
}

func (b *batchSlice) NextBatch(dst []Record) int {
	b.batches++
	n := 0
	for n < min(len(dst), 2) {
		r, ok := b.Next()
		if !ok {
			break
		}
		dst[n] = r
		n++
	}
	return n
}

func TestFill(t *testing.T) {
	recs := []Record{ALU(4), ALU(8), ALU(12), ALU(16), ALU(20)}
	var dst [4]Record

	// A plain Source is read through Next; a short fill is the end.
	plain := NewSliceSource(recs)
	if n := Fill(plain, dst[:]); n != 4 || dst[3] != recs[3] {
		t.Fatalf("first fill: %d records, dst %v", n, dst)
	}
	if n := Fill(plain, dst[:]); n != 1 || dst[0] != recs[4] {
		t.Fatalf("second fill: %d records, dst %v", n, dst)
	}
	if n := Fill(plain, dst[:]); n != 0 {
		t.Fatalf("fill after the end: %d records", n)
	}

	// A BatchSource is read through NextBatch, short batches included.
	b := &batchSlice{SliceSource: *NewSliceSource(recs)}
	var got []Record
	for {
		n := Fill(b, dst[:])
		if n == 0 {
			break
		}
		got = append(got, dst[:n]...)
	}
	if len(got) != len(recs) || b.batches != 4 {
		t.Fatalf("batched: %d records in %d NextBatch calls, want %d in 4", len(got), b.batches, len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("batched record %d = %v, want %v", i, got[i], recs[i])
		}
	}
}
