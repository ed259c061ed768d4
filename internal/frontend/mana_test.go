package frontend

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/xrand"
)

const testLineBytes = 32

// blockAddr returns the line-aligned address of block index i.
func blockAddr(i uint64) uint64 { return i * testLineBytes }

// observeBlocks feeds MANA a sequence of (block index, trigger PC)
// fetch events and collects everything it emits.
func observeBlocks(m *MANA, evs []Event) []Candidate {
	var out []Candidate
	for _, ev := range evs {
		m.Observe(ev, func(c Candidate) { out = append(out, c) })
	}
	return out
}

// TestMANAFootprintGolden pins the footprint record lifecycle: blocks
// touched inside a region set bits, leaving the region commits the
// footprint under the entering trigger PC, and re-entering through the
// same PC replays exactly the recorded blocks.
func TestMANAFootprintGolden(t *testing.T) {
	m, err := NewMANA(8, 3, 8, testLineBytes) // 256 records, 8-block regions
	if err != nil {
		t.Fatal(err)
	}
	trig := uint64(0x40_0000)
	// Region 0 holds block indices 0..7; touch blocks 1, 3, 4 entering
	// through trig, then leave for region 5 (block 40).
	evs := []Event{
		{Block: blockAddr(1), PC: trig},
		{Block: blockAddr(3), PC: trig + 4},
		{Block: blockAddr(4), PC: trig + 8},
	}
	if got := observeBlocks(m, evs); len(got) != 0 {
		t.Fatalf("cold table must emit nothing, got %d candidates", len(got))
	}
	if _, ok := m.Lookup(trig); ok {
		t.Fatal("footprint committed before the region was left")
	}
	// Leaving region 0 commits {1,3,4} under trig. The exiting PC is
	// chosen not to alias trig's record slot ((pc/4)&255 differs).
	observeBlocks(m, []Event{{Block: blockAddr(40), PC: 0x50_0004, Redirect: true}})
	fp, ok := m.Lookup(trig)
	if !ok {
		t.Fatal("footprint not committed on region exit")
	}
	if want := uint64(1<<1 | 1<<3 | 1<<4); fp != want {
		t.Fatalf("footprint = %#b, want %#b", fp, want)
	}

	// Re-enter region 0 through the same trigger PC at block 1: the
	// record replays blocks 3 and 4 (the fetched block itself is
	// skipped), tagged with the trigger and the "mana" source.
	got := observeBlocks(m, []Event{{Block: blockAddr(1), PC: trig, Redirect: true}})
	if len(got) != 2 {
		t.Fatalf("replay emitted %d candidates, want 2: %+v", len(got), got)
	}
	want := []Candidate{
		{Block: blockAddr(3), TriggerPC: trig, Source: core.SrcIMANA},
		{Block: blockAddr(4), TriggerPC: trig, Source: core.SrcIMANA},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidate %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// The re-entry visit touched only block 1; leaving again must
	// *clear* the stale bits — the committed footprint is the last
	// visit's, not the union.
	observeBlocks(m, []Event{{Block: blockAddr(80), PC: 0x60_0000, Redirect: true}})
	fp, ok = m.Lookup(trig)
	if !ok {
		t.Fatal("footprint lost after second commit")
	}
	if want := uint64(1 << 1); fp != want {
		t.Fatalf("footprint after revisit = %#b, want %#b (stale bits must clear)", fp, want)
	}
}

// TestMANATriggerAliasing pins behaviour under the log2 record budget:
// two trigger PCs that collide in the table overwrite each other, and
// the full tag prevents the survivor's footprint from replaying for
// the evicted trigger.
func TestMANATriggerAliasing(t *testing.T) {
	const recordsLog2 = 2 // 4 records: trivial to alias
	m, err := NewMANA(recordsLog2, 3, 8, testLineBytes)
	if err != nil {
		t.Fatal(err)
	}
	// Two instruction-aligned PCs with identical low index bits:
	// (pc/4) & 3 equal.
	trigA := uint64(0x1000) // (0x1000/4)&3 == 0
	trigB := uint64(0x2000) // (0x2000/4)&3 == 0
	if (trigA/isa.InstrBytes)&3 != (trigB/isa.InstrBytes)&3 {
		t.Fatal("test PCs do not alias; fix the constants")
	}

	// Record region 0 = {0,2} under trigA, then region 10 = {80} under
	// trigB, then leave. trigB's commit must evict trigA's record.
	observeBlocks(m, []Event{
		{Block: blockAddr(0), PC: trigA},
		{Block: blockAddr(2), PC: trigA + 4},
		{Block: blockAddr(80), PC: trigB, Redirect: true},   // commits trigA
		{Block: blockAddr(200), PC: 0x3004, Redirect: true}, // commits trigB
	})
	if _, ok := m.Lookup(trigA); ok {
		t.Fatal("aliased record for trigA survived trigB's commit")
	}
	if fp, ok := m.Lookup(trigB); !ok || fp != 1<<(80&7) {
		t.Fatalf("trigB footprint = %#b,%v; want bit %d set", fp, ok, 80&7)
	}
	// Re-entering region 0 through trigA must not replay trigB's
	// footprint: the tag mismatch suppresses it.
	if got := observeBlocks(m, []Event{{Block: blockAddr(0), PC: trigA, Redirect: true}}); len(got) != 0 {
		t.Fatalf("tag-mismatched record replayed %d candidates", len(got))
	}
}

// TestMANADegreeBound is the property test: over random fetch streams,
// no single Observe call may emit more candidates than the configured
// degree, and every emitted block must lie in the entered region and
// differ from the fetched block.
func TestMANADegreeBound(t *testing.T) {
	rng := xrand.New(0xabcdef)
	for _, degree := range []int{1, 2, 3, 5, 8} {
		m, err := NewMANA(6, 3, degree, testLineBytes)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 20_000; step++ {
			// A handful of hot regions so records hit often.
			blockIdx := rng.Uint64() % 64
			pc := uint64(0x40_0000) + (rng.Uint64()%16)*isa.InstrBytes
			ev := Event{Block: blockAddr(blockIdx), PC: pc}
			emitted := 0
			region := blockIdx >> 3
			m.Observe(ev, func(c Candidate) {
				emitted++
				if c.Source != core.SrcIMANA || c.TriggerPC != pc {
					t.Fatalf("step %d: bad provenance %+v", step, c)
				}
				got := (c.Block / testLineBytes) >> 3
				if got != region {
					t.Fatalf("step %d: candidate block %#x outside region %d", step, c.Block, region)
				}
				if c.Block == ev.Block {
					t.Fatalf("step %d: replayed the fetched block itself", step)
				}
			})
			if emitted > degree {
				t.Fatalf("step %d: emitted %d candidates, degree %d", step, emitted, degree)
			}
		}
	}
}

// TestMANABudgetValidation pins the constructor's log2-budget checks.
func TestMANABudgetValidation(t *testing.T) {
	cases := []struct{ recordsLog2, regionLog2, degree int }{
		{0, 3, 2}, {17, 3, 2}, {8, 0, 2}, {8, 7, 2}, {8, 3, 0},
	}
	for _, c := range cases {
		if _, err := NewMANA(c.recordsLog2, c.regionLog2, c.degree, testLineBytes); err == nil {
			t.Fatalf("NewMANA(%d,%d,%d) accepted an invalid budget", c.recordsLog2, c.regionLog2, c.degree)
		}
	}
}
