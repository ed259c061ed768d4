package prefetch

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/xrand"
)

func collect(emitted *[]Candidate) func(Candidate) {
	return func(c Candidate) { *emitted = append(*emitted, c) }
}

func TestNSPValidation(t *testing.T) {
	if _, err := NewNSP(0); err == nil {
		t.Fatal("zero degree should fail")
	}
}

func TestNSPTriggersOnMiss(t *testing.T) {
	n, _ := NewNSP(1)
	var out []Candidate
	n.Observe(Event{PC: 0x400000, LineAddr: 10, L1Hit: false}, collect(&out))
	if len(out) != 1 || out[0].LineAddr != 11 || out[0].TriggerPC != 0x400000 || out[0].Source != core.SrcNSP {
		t.Fatalf("out = %+v", out)
	}
}

func TestNSPTriggersOnTaggedHit(t *testing.T) {
	n, _ := NewNSP(1)
	var out []Candidate
	n.Observe(Event{LineAddr: 10, L1Hit: true, L1HitTagged: true}, collect(&out))
	if len(out) != 1 || out[0].LineAddr != 11 {
		t.Fatalf("tagged hit should trigger: %+v", out)
	}
}

func TestNSPSilentOnPlainHit(t *testing.T) {
	n, _ := NewNSP(1)
	var out []Candidate
	n.Observe(Event{LineAddr: 10, L1Hit: true, L1HitTagged: false}, collect(&out))
	if len(out) != 0 {
		t.Fatalf("plain hit must not trigger: %+v", out)
	}
}

func TestNSPDegree(t *testing.T) {
	n, _ := NewNSP(3)
	var out []Candidate
	n.Observe(Event{LineAddr: 100}, collect(&out))
	if len(out) != 3 {
		t.Fatalf("degree 3 should emit 3 candidates, got %d", len(out))
	}
	for i, c := range out {
		if c.LineAddr != uint64(101+i) {
			t.Fatalf("candidate %d = %+v", i, c)
		}
	}
	if n.Triggers != 1 {
		t.Fatalf("triggers = %d", n.Triggers)
	}
}

func newL2(t *testing.T) *cache.L2 {
	t.Helper()
	c, err := cache.New[cache.L2Line](config.CacheConfig{
		SizeBytes: 4096, LineBytes: 32, Assoc: 4,
		LatencyCycles: 15, Ports: 1, Replacement: config.ReplaceLRU,
	}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSDPValidation(t *testing.T) {
	if _, err := NewSDP(nil); err == nil {
		t.Fatal("nil L2 should fail")
	}
}

func TestSDPShadowFlow(t *testing.T) {
	l2 := newL2(t)
	s, _ := NewSDP(l2)
	var out []Candidate

	// Line A resident in L2; access it (L2 hit after an L1 miss).
	l2.Insert(100)
	s.Observe(Event{PC: 0x400000, LineAddr: 100, L2Hit: true}, collect(&out))
	if len(out) != 0 {
		t.Fatal("no shadow installed yet: nothing to prefetch")
	}

	// The next L2 miss (line 200) becomes A's shadow.
	s.Observe(Event{PC: 0x400004, LineAddr: 200, L2Hit: false}, collect(&out))
	line, ok := l2.Peek(100)
	if !ok || !line.ShadowValid || line.Shadow != 200 || !line.Confirm {
		t.Fatalf("shadow not installed: %+v", line)
	}

	// Re-access A: its confirmed shadow triggers a prefetch of 200.
	s.Observe(Event{PC: 0x400008, LineAddr: 100, L2Hit: true}, collect(&out))
	if len(out) != 1 || out[0].LineAddr != 200 || out[0].Source != core.SrcSDP {
		t.Fatalf("shadow prefetch missing: %+v", out)
	}
	if line.Confirm {
		t.Fatal("issuing the shadow prefetch must clear the confirmation bit")
	}

	// Without re-confirmation, A's shadow must stay quiet.
	out = nil
	s.Observe(Event{PC: 0x40000c, LineAddr: 100, L2Hit: true}, collect(&out))
	if len(out) != 0 {
		t.Fatal("unconfirmed shadow must not re-trigger")
	}

	// A demand reference to the shadow line re-confirms it.
	s.Observe(Event{PC: 0x400010, LineAddr: 200, L2Hit: true}, collect(&out))
	if !line.Confirm {
		t.Fatal("use of the shadow line should set the confirmation bit")
	}
	if s.Confirmed != 1 || s.Triggers != 1 {
		t.Fatalf("stats: confirmed=%d triggers=%d", s.Confirmed, s.Triggers)
	}
}

func TestSDPIgnoresL1Hits(t *testing.T) {
	l2 := newL2(t)
	s, _ := NewSDP(l2)
	var out []Candidate
	l2.Insert(100)
	s.Observe(Event{LineAddr: 100, L1Hit: true}, collect(&out))
	s.Observe(Event{LineAddr: 300, L1Hit: true}, collect(&out))
	if line, _ := l2.Peek(100); line.ShadowValid {
		t.Fatal("L1 hits never reach the L2 shadow directory")
	}
}

func TestStrideValidation(t *testing.T) {
	if _, err := NewStride(3); err == nil {
		t.Fatal("non-pow2 entries should fail")
	}
}

func TestStrideDetectsConstantStride(t *testing.T) {
	s, _ := NewStride(64)
	var out []Candidate
	pc := uint64(0x400000)
	// Accesses with stride 2: steady after the second repeat.
	for i := uint64(0); i < 5; i++ {
		s.Observe(Event{PC: pc, LineAddr: 100 + i*2}, collect(&out))
	}
	if len(out) == 0 {
		t.Fatal("steady stride should prefetch")
	}
	last := out[len(out)-1]
	if last.LineAddr != 108+2 {
		t.Fatalf("expected prefetch of next stride (110), got %d", last.LineAddr)
	}
}

func TestStrideIgnoresIrregular(t *testing.T) {
	s, _ := NewStride(64)
	var out []Candidate
	pc := uint64(0x400000)
	rng := xrand.New(3)
	for i := 0; i < 50; i++ {
		s.Observe(Event{PC: pc, LineAddr: rng.Uint64n(1 << 30)}, collect(&out))
	}
	if len(out) > 5 {
		t.Fatalf("random addresses generated %d prefetches", len(out))
	}
}

func TestStrideZeroStrideSilent(t *testing.T) {
	s, _ := NewStride(64)
	var out []Candidate
	for i := 0; i < 10; i++ {
		s.Observe(Event{PC: 0x400000, LineAddr: 42}, collect(&out))
	}
	if len(out) != 0 {
		t.Fatalf("repeated same-line accesses must not prefetch: %d", len(out))
	}
}

func TestStrideSeparatePCs(t *testing.T) {
	s, _ := NewStride(64)
	var outA, outB []Candidate
	for i := uint64(0); i < 5; i++ {
		s.Observe(Event{PC: 0x400000, LineAddr: 100 + i}, collect(&outA))
		s.Observe(Event{PC: 0x400004, LineAddr: 5000 + i*4}, collect(&outB))
	}
	if len(outA) == 0 || len(outB) == 0 {
		t.Fatal("both PCs should reach steady state")
	}
	if outB[len(outB)-1].LineAddr != 5016+4 {
		t.Fatalf("PC B stride wrong: %+v", outB[len(outB)-1])
	}
}

func TestCompositeFansOut(t *testing.T) {
	nsp, _ := NewNSP(1)
	st, _ := NewStride(64)
	c := NewComposite(nsp, st)
	if len(c.Parts()) != 2 || c.Name() != "composite" {
		t.Fatalf("composite: %+v", c)
	}
	var out []Candidate
	c.Observe(Event{PC: 0x400000, LineAddr: 10}, collect(&out))
	if len(out) != 1 { // NSP triggers; stride still warming
		t.Fatalf("fan-out produced %d", len(out))
	}
	// Empty composite is valid and silent.
	empty := NewComposite()
	empty.Observe(Event{LineAddr: 1}, collect(&out))
	if len(out) != 1 {
		t.Fatal("empty composite must emit nothing")
	}
}

func TestCorrelationValidation(t *testing.T) {
	if _, err := NewCorrelation(3, 2); err == nil {
		t.Fatal("non-pow2 sets should fail")
	}
	if _, err := NewCorrelation(16, 0); err == nil {
		t.Fatal("zero assoc should fail")
	}
}

func TestCorrelationLearnsMissPairs(t *testing.T) {
	c, _ := NewCorrelation(64, 2)
	var out []Candidate
	// Miss stream A, B, A: the second visit to A should prefetch B.
	c.Observe(Event{LineAddr: 100, L1Hit: false}, collect(&out))
	c.Observe(Event{LineAddr: 200, L1Hit: false}, collect(&out))
	if len(out) != 0 {
		t.Fatalf("cold table should not prefetch: %+v", out)
	}
	c.Observe(Event{LineAddr: 100, L1Hit: false}, collect(&out))
	if len(out) != 1 || out[0].LineAddr != 200 || out[0].Source != core.SrcCorrelation {
		t.Fatalf("correlated prefetch missing: %+v", out)
	}
	if c.Triggers != 1 {
		t.Fatalf("triggers = %d", c.Triggers)
	}
}

func TestCorrelationIgnoresHits(t *testing.T) {
	c, _ := NewCorrelation(64, 2)
	var out []Candidate
	c.Observe(Event{LineAddr: 100, L1Hit: true}, collect(&out))
	c.Observe(Event{LineAddr: 200, L1Hit: true}, collect(&out))
	c.Observe(Event{LineAddr: 100, L1Hit: true}, collect(&out))
	if len(out) != 0 {
		t.Fatal("hits must not train or trigger the miss correlator")
	}
}

func TestCorrelationUpdatesPair(t *testing.T) {
	c, _ := NewCorrelation(64, 2)
	var out []Candidate
	// A→B, then A→C: the newer successor wins.
	for _, stream := range [][]uint64{{100, 200}, {100, 300}} {
		for _, la := range stream {
			c.Observe(Event{LineAddr: la, L1Hit: false}, collect(&out))
		}
	}
	out = nil
	c.Observe(Event{LineAddr: 100, L1Hit: false}, collect(&out))
	if len(out) != 1 || out[0].LineAddr != 300 {
		t.Fatalf("pair not updated: %+v", out)
	}
}

func TestCorrelationRepeatedMissNoSelfLoop(t *testing.T) {
	c, _ := NewCorrelation(64, 2)
	var out []Candidate
	for i := 0; i < 5; i++ {
		c.Observe(Event{LineAddr: 42, L1Hit: false}, collect(&out))
	}
	if len(out) != 0 {
		t.Fatalf("self-correlation must not prefetch the missing line itself: %+v", out)
	}
}

func TestCorrelationLRUWithinSet(t *testing.T) {
	c, _ := NewCorrelation(1, 2) // single set, 2 ways
	var out []Candidate
	// Train pairs (10→11), (20→21); then (30→31) evicts the LRU (10).
	for _, la := range []uint64{10, 11, 20, 21, 10, 11} { // refresh 10
		c.Observe(Event{LineAddr: la, L1Hit: false}, collect(&out))
	}
	out = nil
	c.Observe(Event{LineAddr: 30, L1Hit: false}, collect(&out))
	c.Observe(Event{LineAddr: 31, L1Hit: false}, collect(&out))
	out = nil
	c.Observe(Event{LineAddr: 10, L1Hit: false}, collect(&out))
	if len(out) != 1 {
		t.Fatalf("refreshed entry should survive: %+v", out)
	}
}

// --- RPT state machine ---

// observeState drives one access and returns the entry's state for PC.
func rptStateOf(s *Stride, pc uint64) rptState {
	return s.entries[(pc>>2)&s.mask].state
}

func TestStrideRPTStateTransitions(t *testing.T) {
	s, _ := NewStride(64)
	pc := uint64(0x400000)
	var out []Candidate

	// First touch allocates in initial state, no prediction.
	s.Observe(Event{PC: pc, LineAddr: 100}, collect(&out))
	if got := rptStateOf(s, pc); got != rptInitial {
		t.Fatalf("after first touch: state = %d, want initial", got)
	}
	// A first (non-zero) stride observation: initial -> transient.
	s.Observe(Event{PC: pc, LineAddr: 104}, collect(&out))
	if got := rptStateOf(s, pc); got != rptTransient {
		t.Fatalf("after new stride: state = %d, want transient", got)
	}
	// The stride repeats: transient -> steady, and prediction starts.
	s.Observe(Event{PC: pc, LineAddr: 108}, collect(&out))
	if got := rptStateOf(s, pc); got != rptSteady {
		t.Fatalf("after confirmation: state = %d, want steady", got)
	}
	if len(out) != 1 || out[0].LineAddr != 112 || out[0].Source != core.SrcStride {
		t.Fatalf("steady entry should prefetch 112 tagged stride: %+v", out)
	}
	// A mismatch in steady drops back to initial (not straight to noPred).
	s.Observe(Event{PC: pc, LineAddr: 200}, collect(&out))
	if got := rptStateOf(s, pc); got != rptInitial {
		t.Fatalf("steady mismatch: state = %d, want initial", got)
	}
}

func TestStrideRPTNoPredAndRecovery(t *testing.T) {
	s, _ := NewStride(64)
	pc := uint64(0x400000)
	var out []Candidate
	// Two successive mismatching strides: initial -> transient -> noPred.
	s.Observe(Event{PC: pc, LineAddr: 100}, collect(&out))
	s.Observe(Event{PC: pc, LineAddr: 110}, collect(&out)) // stride 10, transient
	s.Observe(Event{PC: pc, LineAddr: 113}, collect(&out)) // stride 3, noPred
	if got := rptStateOf(s, pc); got != rptNoPred {
		t.Fatalf("after two mismatches: state = %d, want noPred", got)
	}
	if len(out) != 0 {
		t.Fatalf("noPred must not prefetch: %+v", out)
	}
	// The new stride repeating climbs back: noPred -> transient -> steady.
	s.Observe(Event{PC: pc, LineAddr: 116}, collect(&out)) // stride 3 matches
	if got := rptStateOf(s, pc); got != rptTransient {
		t.Fatalf("noPred recovery: state = %d, want transient", got)
	}
	s.Observe(Event{PC: pc, LineAddr: 119}, collect(&out))
	if got := rptStateOf(s, pc); got != rptSteady {
		t.Fatalf("second match: state = %d, want steady", got)
	}
	if len(out) != 1 || out[0].LineAddr != 122 {
		t.Fatalf("recovered entry should predict 122: %+v", out)
	}
}

func TestStrideRPTTagMismatchReallocates(t *testing.T) {
	s, _ := NewStride(64)
	var out []Candidate
	pcA := uint64(0x400000)
	pcB := pcA + (64 << 2 << 12) // same index bits, different tag
	for i := uint64(0); i < 3; i++ {
		s.Observe(Event{PC: pcA, LineAddr: 100 + i*4}, collect(&out))
	}
	if got := rptStateOf(s, pcA); got != rptSteady {
		t.Fatalf("pcA should be steady, got %d", got)
	}
	// pcB collides on the index but not the tag: the entry reallocates
	// fresh (initial state) instead of training on pcA's history.
	s.Observe(Event{PC: pcB, LineAddr: 5000}, collect(&out))
	if got := rptStateOf(s, pcB); got != rptInitial {
		t.Fatalf("tag mismatch must reallocate to initial, got %d", got)
	}
	before := len(out)
	s.Observe(Event{PC: pcB, LineAddr: 5004}, collect(&out))
	if len(out) != before {
		t.Fatal("reallocated entry must not predict from stale stride")
	}
}

func TestStrideNegativeNextGuard(t *testing.T) {
	s, _ := NewStride(64)
	var out []Candidate
	pc := uint64(0x400000)
	// Descending stride larger than the address: next would go negative.
	for _, la := range []uint64{30, 20, 10} {
		s.Observe(Event{PC: pc, LineAddr: la}, collect(&out))
	}
	if got := rptStateOf(s, pc); got != rptSteady {
		t.Fatalf("descending stride should reach steady, got %d", got)
	}
	// 10 + (-10) = 0: the next > 0 guard suppresses the prediction.
	if len(out) != 0 {
		t.Fatalf("negative/zero next line must be suppressed: %+v", out)
	}
}

// --- composite fan-out and cross-part dedup ---

func TestCompositeFanOutOrderIsPartOrder(t *testing.T) {
	// Two stride prefetchers warmed on the same PC emit in part order.
	a, _ := NewStride(64)
	b, _ := NewStride(64)
	warm := func(s *Stride) {
		var sink []Candidate
		s.Observe(Event{PC: 0x400000, LineAddr: 100}, collect(&sink))
		s.Observe(Event{PC: 0x400000, LineAddr: 104}, collect(&sink))
	}
	warm(a)
	warm(b)
	c := NewComposite(a, b)
	var out []Candidate
	c.Observe(Event{PC: 0x400000, LineAddr: 108}, collect(&out))
	if len(out) != 2 {
		t.Fatalf("both parts should emit: %+v", out)
	}
	if out[0].LineAddr != 112 || out[1].LineAddr != 112 {
		t.Fatalf("both parts predict 112: %+v", out)
	}
}

func TestCompositeDuplicatesDedupAtQueue(t *testing.T) {
	// The composite itself does not dedup (the hierarchy's queue and
	// cache-containment checks do, and counting those squashes is part of
	// the stats contract). Two parts proposing the same line therefore
	// collapse to one queued prefetch.
	a, _ := NewNSP(1)
	b, _ := NewNSP(1)
	c := NewComposite(a, b)
	q, _ := NewQueue(8)
	var out []Candidate
	c.Observe(Event{PC: 0x400000, LineAddr: 10}, collect(&out))
	if len(out) != 2 {
		t.Fatalf("two NSPs should both propose: %+v", out)
	}
	enq := 0
	for _, cand := range out {
		if q.Enqueue(cand, 0) {
			enq++
		}
	}
	if enq != 1 || q.Len() != 1 {
		t.Fatalf("duplicate proposals must dedup at the queue: enq=%d len=%d", enq, q.Len())
	}
}
