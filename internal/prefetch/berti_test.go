package prefetch

import (
	"testing"

	"repro/internal/core"
)

// TestLatencyTableInsertTakeEvict pins the reuse-latency table mechanics:
// one sample per inserted miss, removal on take, direct-mapped eviction,
// and uint32-safe elapsed-cycle arithmetic across counter wraparound.
func TestLatencyTableInsertTakeEvict(t *testing.T) {
	lt := newLatencyTable(3) // 8 slots

	lt.insert(0x1000, 10)
	if lat, ok := lt.take(0x1000, 35); !ok || lat != 25 {
		t.Fatalf("take after insert = (%d,%v), want (25,true)", lat, ok)
	}
	// take removes the entry: a second probe of the same line misses.
	if _, ok := lt.take(0x1000, 40); ok {
		t.Fatal("second take hit; take must remove the entry")
	}

	// Two lines sharing the direct-mapped slot: the newer insert evicts
	// the older, which then misses.
	a, b := uint64(0x20), uint64(0x20+8) // same index under mask 7
	if a&lt.mask != b&lt.mask {
		t.Fatalf("test lines %#x/%#x do not collide under mask %#x", a, b, lt.mask)
	}
	lt.insert(a, 100)
	lt.insert(b, 110)
	if _, ok := lt.take(a, 120); ok {
		t.Fatal("evicted line still hit the latency table")
	}
	if lat, ok := lt.take(b, 125); !ok || lat != 15 {
		t.Fatalf("survivor take = (%d,%v), want (15,true)", lat, ok)
	}

	// Elapsed cycles survive uint32 cycle-counter wraparound.
	lt.insert(0x3000, (1<<32)-10)
	if lat, ok := lt.take(0x3000, (1<<32)+10); !ok || lat != 20 {
		t.Fatalf("wraparound take = (%d,%v), want (20,true)", lat, ok)
	}

	// Line 0 is the empty marker and can never hit.
	lt.insert(0, 5)
	if _, ok := lt.take(0, 10); ok {
		t.Fatal("line 0 must not hit; zero tags mark empty slots")
	}
}

// TestBertiBestDeltaHandBuiltPattern drives Observe with a pure +1-line
// stride from one PC, with accesses spaced far enough apart that every
// delta trains as timely (prior cycle + latEst <= now). The +1 delta is
// trained once more per access than +2, +2 once more than +3, and so on,
// so +1 must be the first to reach the issue threshold and every emitted
// candidate targets line+1.
func TestBertiBestDeltaHandBuiltPattern(t *testing.T) {
	b, err := NewBerti(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	const pc, base, gap = uint64(0x400), uint64(1 << 20), uint64(1000)

	var got []Candidate
	for i := uint64(0); i < 16; i++ {
		b.Observe(Event{PC: pc, LineAddr: base + i, Cycle: (i + 1) * gap},
			func(c Candidate) { got = append(got, c) })
	}
	if b.Triggers == 0 || len(got) == 0 {
		t.Fatal("strided PC never crossed the confidence threshold")
	}
	// With timely bonus 4 the +1 delta earns 4/access starting at the
	// second access; it crosses bertiConfThresh=32 on the 9th access,
	// and no emission may precede that.
	if uint64(len(got)) != b.Triggers {
		t.Fatalf("emitted %d candidates but Triggers=%d", len(got), b.Triggers)
	}
	if len(got) > 8 {
		t.Fatalf("emitted %d candidates over 16 accesses; threshold crossing allows at most 8", len(got))
	}
	for i, c := range got {
		if c.Source != core.SrcBerti {
			t.Fatalf("candidate %d source = %v, want berti", i, c.Source)
		}
		if c.TriggerPC != pc {
			t.Fatalf("candidate %d trigger PC = %#x, want %#x", i, c.TriggerPC, pc)
		}
	}
	// Every emission targets exactly one line ahead of its trigger.
	first := got[0].LineAddr
	for i, c := range got {
		if c.LineAddr != first+uint64(i) {
			t.Fatalf("candidate %d targets %#x, want %#x (stride +1)", i, c.LineAddr, first+uint64(i))
		}
	}

	// The winning candidate in the trained entry is delta +1.
	e := &b.hist[pcIndex(pc)&b.histMsk]
	if e.tag != pc {
		t.Fatalf("history entry tag = %#x, want %#x", e.tag, pc)
	}
	if delta, ok := b.bestDelta(e); !ok || delta != 1 {
		t.Fatalf("bestDelta = (%d,%v), want (1,true)", delta, ok)
	}
}

// TestBertiLatencyEWMASigned pins the signed EWMA update: a reuse-
// latency sample below the current estimate must move the estimate
// DOWN. The original unsigned form `latEst += (lat-latEst)>>shift`
// wrapped the negative difference and exploded the estimate from the
// 64-cycle seed to ~2^29 after a single 8-cycle sample, after which the
// timeliness checks never fired again.
func TestBertiLatencyEWMASigned(t *testing.T) {
	b, err := NewBerti(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	drop := func(Candidate) {}

	// An L2 miss enters the latency table; re-touching the line 8 cycles
	// later closes the loop with one 8-cycle sample.
	b.Observe(Event{PC: 0x40, LineAddr: 0x500, Cycle: 100}, drop)
	b.Observe(Event{PC: 0x40, LineAddr: 0x500, Cycle: 108}, drop)
	want := uint32(bertiSeedLatency + (8-bertiSeedLatency)>>bertiLatencyShift) // 64 - 7 = 57
	if b.latEst != want {
		t.Fatalf("latEst after 8-cycle sample = %d, want %d (must decrease, not wrap)", b.latEst, want)
	}

	// A sample above the estimate still raises it. The second touch
	// above re-inserted 0x500 (it was an L2 miss), so touch it again.
	b.Observe(Event{PC: 0x40, LineAddr: 0x500, Cycle: 108 + 121}, drop)
	want = 57 + (121-57)>>bertiLatencyShift // 57 + 8 = 65
	if b.latEst != want {
		t.Fatalf("latEst after 121-cycle sample = %d, want %d", b.latEst, want)
	}
}

// TestBertiShadowTimelyWideElapsed pins the 32-bit shadow issue stamp:
// a demand arriving more than 2^16 cycles after the prefetch was issued
// is unambiguously timely, where the old 16-bit-truncated stamp wrapped
// the elapsed time to ~10 cycles and misclassified it.
func TestBertiShadowTimelyWideElapsed(t *testing.T) {
	b, err := NewBerti(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	drop := func(Candidate) {}

	// A demand only 10 cycles after issue beat the prefetch home: useful
	// but not timely.
	early := uint64(0x700)
	i := early & b.shadow.mask
	b.shadow.tags[i] = early
	b.shadow.cycles[i] = 100
	b.Observe(Event{PC: 0x40, LineAddr: early, Cycle: 110, L1Hit: true}, drop)
	if b.Useful != 1 || b.Timely != 0 {
		t.Fatalf("early demand: Useful=%d Timely=%d, want 1,0", b.Useful, b.Timely)
	}

	// A demand 2^16+10 cycles after issue is long past the latency
	// estimate. Under 16-bit truncation the elapsed wrapped to 10 and
	// this counted as not timely.
	late := uint64(0x780)
	i = late & b.shadow.mask
	b.shadow.tags[i] = late
	b.shadow.cycles[i] = 100
	b.Observe(Event{PC: 0x40, LineAddr: late, Cycle: 100 + (1 << 16) + 10, L1Hit: true}, drop)
	if b.Useful != 2 || b.Timely != 1 {
		t.Fatalf("long-lived demand: Useful=%d Timely=%d, want 2,1", b.Useful, b.Timely)
	}
}

// TestBertiBestDeltaTieBreak pins the deterministic tie-break: equal
// confidence resolves to the lowest candidate index.
func TestBertiBestDeltaTieBreak(t *testing.T) {
	b, err := NewBerti(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := &bertiEntry{tag: 0x40}
	pack := func(delta int16, conf uint32) uint32 {
		return uint32(uint16(delta))<<8 | conf
	}
	e.cand[1] = pack(7, bertiConfThresh)
	e.cand[3] = pack(-2, bertiConfThresh) // same confidence, higher index
	if delta, ok := b.bestDelta(e); !ok || delta != 7 {
		t.Fatalf("bestDelta = (%d,%v), want first-index winner (7,true)", delta, ok)
	}
	// A strictly higher confidence beats the earlier index.
	e.cand[3] = pack(-2, bertiConfThresh+1)
	if delta, ok := b.bestDelta(e); !ok || delta != -2 {
		t.Fatalf("bestDelta = (%d,%v), want higher-confidence (-2,true)", delta, ok)
	}
	// Below threshold nothing is eligible.
	e.cand[1] = pack(7, bertiConfThresh-1)
	e.cand[3] = pack(-2, bertiConfThresh-1)
	if _, ok := b.bestDelta(e); ok {
		t.Fatal("bestDelta returned a candidate below the issue threshold")
	}
}
