package deadblock

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/xrand"
)

func mkL1(t *testing.T) *cache.L1 {
	t.Helper()
	c, err := cache.New[cache.L1Line](config.Default().L1, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	for _, n := range []int{0, 3, -8} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d) should fail", n)
		}
	}
	p, err := New(4096)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entries() != 4096 {
		t.Fatalf("entries = %d", p.Entries())
	}
}

func TestFreshLinePredictsLive(t *testing.T) {
	p, _ := New(256)
	var line cache.L1Line
	if p.PredictDead(&line) {
		t.Fatal("a line with no signature must be presumed live")
	}
}

func TestLastTouchLearning(t *testing.T) {
	p, _ := New(256)
	const pc = 0x400010
	// Pattern: a PC whose touch is always the last before eviction.
	for i := 0; i < 3; i++ {
		var line cache.L1Line
		p.OnFill(&line, pc)
		p.OnEvict(line)
	}
	var line cache.L1Line
	p.OnFill(&line, pc)
	if !p.PredictDead(&line) {
		t.Fatal("a repeatedly-last PC should predict dead")
	}
}

func TestReAccessRefutesDeath(t *testing.T) {
	p, _ := New(256)
	const pc = 0x400010
	// Train the signature dead…
	for i := 0; i < 3; i++ {
		var line cache.L1Line
		p.OnFill(&line, pc)
		p.OnEvict(line)
	}
	// …then observe re-accesses after the same PC: trains live again.
	for i := 0; i < 3; i++ {
		var line cache.L1Line
		p.OnFill(&line, pc)
		p.OnAccess(&line, pc) // previous sig (same pc) refuted
	}
	var line cache.L1Line
	p.OnFill(&line, pc)
	if p.PredictDead(&line) {
		t.Fatal("refuted signature should predict live again")
	}
	if p.TrainLive != 3 {
		t.Fatalf("TrainLive = %d", p.TrainLive)
	}
}

func TestOnAccessRotatesSignature(t *testing.T) {
	p, _ := New(256)
	var line cache.L1Line
	p.OnFill(&line, 0x400010)
	sig1 := line.DeadSig
	p.OnAccess(&line, 0x400020)
	if line.DeadSig == sig1 {
		t.Fatal("a new access must install a new signature")
	}
}

func TestEvictWithoutSignatureIsNoop(t *testing.T) {
	p, _ := New(256)
	p.OnEvict(cache.L1Line{})
	if p.TrainDead != 0 {
		t.Fatal("unsigned eviction must not train")
	}
}

func TestAllowPrefetchFreeFrame(t *testing.T) {
	p, _ := New(256)
	l1 := mkL1(t)
	if !p.AllowPrefetch(l1, 42) {
		t.Fatal("empty set: prefetch must be allowed")
	}
}

func TestAllowPrefetchLiveVictim(t *testing.T) {
	p, _ := New(256)
	l1 := mkL1(t)
	line, _, _ := l1.Insert(42) // direct-mapped: sole occupant of its set
	p.OnFill(line, 0x400010)    // untrained signature: presumed live
	conflicting := uint64(42 + 256)
	if p.AllowPrefetch(l1, conflicting) {
		t.Fatal("live victim: prefetch must be gated off")
	}
}

func TestAllowPrefetchDeadVictim(t *testing.T) {
	p, _ := New(256)
	const pc = 0x400010
	for i := 0; i < 3; i++ {
		var line cache.L1Line
		p.OnFill(&line, pc)
		p.OnEvict(line)
	}
	l1 := mkL1(t)
	line, _, _ := l1.Insert(42)
	p.OnFill(line, pc) // dead-trained signature
	if !p.AllowPrefetch(l1, 42+256) {
		t.Fatal("dead victim: prefetch must pass")
	}
	if p.DeadPreds == 0 {
		t.Fatal("dead prediction should be counted")
	}
}

func TestResetStatsKeepsTable(t *testing.T) {
	p, _ := New(256)
	const pc = 0x400010
	for i := 0; i < 3; i++ {
		var line cache.L1Line
		p.OnFill(&line, pc)
		p.OnEvict(line)
	}
	p.ResetStats()
	if p.TrainDead != 0 || p.Queries != 0 {
		t.Fatal("stats should reset")
	}
	var line cache.L1Line
	p.OnFill(&line, pc)
	if !p.PredictDead(&line) {
		t.Fatal("prediction table must stay warm across reset")
	}
}
