package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/xrand"
)

func mkCache(t *testing.T, size, line, assoc int, repl config.ReplacementPolicy) *L1 {
	t.Helper()
	c, err := New[L1Line](config.CacheConfig{
		SizeBytes:     size,
		LineBytes:     line,
		Assoc:         assoc,
		LatencyCycles: 1,
		Ports:         1,
		Replacement:   repl,
	}, xrand.New(7))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestGeometry(t *testing.T) {
	c := mkCache(t, 8192, 32, 1, config.ReplaceLRU)
	if got := c.Config().Sets(); got != 256 {
		t.Fatalf("sets = %d", got)
	}
	if got := c.Capacity(); got != 256 {
		t.Fatalf("capacity = %d", got)
	}
}

func TestLineAddrRoundTrip(t *testing.T) {
	c := mkCache(t, 8192, 32, 1, config.ReplaceLRU)
	for _, addr := range []uint64{0, 31, 32, 8191, 1 << 30} {
		la := c.LineAddr(addr)
		base := c.ByteAddr(la)
		if base > addr || addr-base >= 32 {
			t.Fatalf("addr %#x -> line %#x -> base %#x", addr, la, base)
		}
	}
}

func TestInsertThenLookupHits(t *testing.T) {
	c := mkCache(t, 1024, 32, 2, config.ReplaceLRU)
	for la := uint64(0); la < 16; la++ {
		c.Insert(la)
		if _, ok := c.Lookup(la); !ok {
			t.Fatalf("line %d should hit after insert", la)
		}
	}
}

func TestLookupMissOnEmpty(t *testing.T) {
	c := mkCache(t, 1024, 32, 2, config.ReplaceLRU)
	if _, ok := c.Lookup(5); ok {
		t.Fatal("empty cache should miss")
	}
	if _, ok := c.Peek(5); ok {
		t.Fatal("empty cache should miss on Peek")
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := mkCache(t, 1024, 32, 1, config.ReplaceLRU) // 32 sets
	c.Insert(0)
	c.Insert(32) // same set (0 % 32 == 32 % 32)
	if c.Contains(0) {
		t.Fatal("direct-mapped conflict should evict line 0")
	}
	if !c.Contains(32) {
		t.Fatal("line 32 should be resident")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := mkCache(t, 4*32, 32, 4, config.ReplaceLRU) // 1 set, 4 ways
	for la := uint64(0); la < 4; la++ {
		c.Insert(la)
	}
	// Touch 0 to make it MRU; 1 becomes LRU.
	c.Lookup(0)
	_, v, evicted := c.Insert(100)
	if v == nil || evicted != 1 {
		t.Fatalf("expected eviction of line 1, got %d (evicted %v)", evicted, v != nil)
	}
}

func TestFIFOEvictionOrder(t *testing.T) {
	c := mkCache(t, 4*32, 32, 4, config.ReplaceFIFO)
	for la := uint64(0); la < 4; la++ {
		c.Insert(la)
	}
	c.Lookup(0) // touching must NOT matter for FIFO
	_, v, evicted := c.Insert(100)
	if v == nil || evicted != 0 {
		t.Fatalf("FIFO should evict the oldest insert (0), got %d", evicted)
	}
}

func TestRandomReplacementStaysInSet(t *testing.T) {
	c := mkCache(t, 4*32, 32, 4, config.ReplaceRandom)
	for la := uint64(0); la < 4; la++ {
		c.Insert(la)
	}
	_, v, evicted := c.Insert(100)
	if v == nil || evicted > 3 {
		t.Fatalf("random policy must evict a resident line, got %d", evicted)
	}
}

func TestRandomRequiresRNG(t *testing.T) {
	_, err := New[L1Line](config.CacheConfig{
		SizeBytes: 1024, LineBytes: 32, Assoc: 2,
		LatencyCycles: 1, Ports: 1, Replacement: config.ReplaceRandom,
	}, nil)
	if err == nil {
		t.Fatal("random replacement without RNG should fail")
	}
}

func TestReinsertResidentNoEviction(t *testing.T) {
	c := mkCache(t, 1024, 32, 2, config.ReplaceLRU)
	c.Insert(7)
	line, evicted, _ := c.Insert(7)
	if evicted != nil {
		t.Fatal("reinserting a resident line must not evict")
	}
	if got, ok := c.Peek(7); !ok || got != line {
		t.Fatalf("reinsert returned %p, line 7's frame is %p (resident %v)", line, got, ok)
	}
	if c.ValidLines() != 1 {
		t.Fatalf("ValidLines = %d", c.ValidLines())
	}
}

func TestReinsertClearsMetadata(t *testing.T) {
	c := mkCache(t, 1024, 32, 2, config.ReplaceLRU)
	line, _, _ := c.Insert(7)
	line.PIB, line.RIB, line.Dirty = true, true, true
	fresh, _, _ := c.Insert(7)
	if fresh.PIB || fresh.RIB || fresh.Dirty {
		t.Fatal("reinsert must reset line metadata")
	}
}

func TestMetadataPersistsAcrossLookup(t *testing.T) {
	c := mkCache(t, 1024, 32, 2, config.ReplaceLRU)
	line, _, _ := c.Insert(3)
	line.PIB = true
	line.TriggerPC = 0xbeef
	got, ok := c.Lookup(3)
	if !ok || !got.PIB || got.TriggerPC != 0xbeef {
		t.Fatalf("metadata lost: %+v", got)
	}
}

func TestEvictionCarriesMetadata(t *testing.T) {
	c := mkCache(t, 32, 32, 1, config.ReplaceLRU) // one line total
	line, _, _ := c.Insert(0)
	line.PIB, line.RIB = true, true
	line.TriggerPC = 0x1234
	_, evicted, addr := c.Insert(1)
	if evicted == nil || addr != 0 || !evicted.PIB || !evicted.RIB || evicted.TriggerPC != 0x1234 {
		t.Fatalf("evicted line %d's metadata lost: %+v", addr, evicted)
	}
}

func TestPeekDoesNotTouchLRU(t *testing.T) {
	c := mkCache(t, 2*32, 32, 2, config.ReplaceLRU)
	c.Insert(0)
	c.Insert(2) // same single set? sets = 1, both lines in set 0
	c.Peek(0)   // must NOT refresh 0
	_, _, evicted := c.Insert(4)
	if evicted != 0 {
		t.Fatalf("Peek refreshed LRU: evicted %d", evicted)
	}
}

func TestInvalidate(t *testing.T) {
	c := mkCache(t, 1024, 32, 2, config.ReplaceLRU)
	line, _, _ := c.Insert(9)
	line.Dirty = true
	old, ok := c.Invalidate(9)
	if !ok || !old.Dirty {
		t.Fatalf("Invalidate = %+v, %v", old, ok)
	}
	if c.Contains(9) {
		t.Fatal("line should be gone")
	}
	if _, ok := c.Invalidate(9); ok {
		t.Fatal("double invalidate should miss")
	}
}

func TestForEachAndValidLines(t *testing.T) {
	c := mkCache(t, 1024, 32, 2, config.ReplaceLRU)
	for la := uint64(0); la < 10; la++ {
		c.Insert(la)
	}
	if got := c.ValidLines(); got != 10 {
		t.Fatalf("ValidLines = %d", got)
	}
	sum := uint64(0)
	c.ForEach(func(la uint64, _ *L1Line) { sum += la })
	if sum != 45 {
		t.Fatalf("ForEach visited wrong lines: sum %d", sum)
	}
}

func TestFlush(t *testing.T) {
	// The pools may hand this cache a record array left all dirty: Flush
	// must count only the lines the tags mark resident.
	Scribble(make([]uint64, 32), L1Line{Dirty: true})
	c := mkCache(t, 1024, 32, 2, config.ReplaceLRU)
	for la := uint64(0); la < 5; la++ {
		line, _, _ := c.Insert(la)
		if la%2 == 0 {
			line.Dirty = true
		}
	}
	if wb := c.Flush(); wb != 3 {
		t.Fatalf("Flush writebacks = %d, want 3", wb)
	}
	if c.ValidLines() != 0 {
		t.Fatal("flush should empty the cache")
	}
}

func TestStatsCounting(t *testing.T) {
	c := mkCache(t, 32, 32, 1, config.ReplaceLRU)
	line, _, _ := c.Insert(0)
	line.Dirty = true
	c.Insert(1) // evicts dirty line 0
	if c.Stats.Evictions != 1 || c.Stats.Writebacks != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("idle stats miss rate should be 0")
	}
	s.DemandAccesses, s.DemandMisses = 10, 3
	if s.MissRate() != 0.3 {
		t.Fatalf("miss rate = %v", s.MissRate())
	}
}

// Property: the cache never holds more lines than its capacity, and an
// inserted line is always immediately findable.
func TestPropertyCapacityAndResidency(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := mkCache(t, 512, 32, 2, config.ReplaceLRU) // 16 frames
		for _, a := range addrs {
			la := uint64(a)
			c.Insert(la)
			if !c.Contains(la) {
				return false
			}
			if c.ValidLines() > c.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: lines map to a stable set — evicting only happens between
// lines of equal set index.
func TestPropertySetStability(t *testing.T) {
	f := func(a, b uint16) bool {
		c := mkCache(t, 512, 32, 1, config.ReplaceLRU) // 16 sets direct-mapped
		la, lb := uint64(a), uint64(b)
		c.Insert(la)
		_, v, evicted := c.Insert(lb)
		if la == lb {
			return v == nil
		}
		if v != nil {
			// eviction only if same set
			return la%16 == lb%16 && evicted == la
		}
		return la%16 != lb%16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestValidationErrors(t *testing.T) {
	bad := config.CacheConfig{SizeBytes: 0, LineBytes: 32, Assoc: 1, LatencyCycles: 1, Ports: 1, Replacement: config.ReplaceLRU}
	if _, err := New[L1Line](bad, nil); err == nil {
		t.Fatal("zero size should fail")
	}
}

func TestPeekVictimEmptySet(t *testing.T) {
	c := mkCache(t, 1024, 32, 2, config.ReplaceLRU)
	if _, has := c.PeekVictim(5); has {
		t.Fatal("empty set has no victim")
	}
	c.Insert(5)
	// One way still free.
	if _, has := c.PeekVictim(5 + 16); has {
		t.Fatal("set with a free way has no victim")
	}
}

func TestPeekVictimResidentLine(t *testing.T) {
	c := mkCache(t, 2*32, 32, 2, config.ReplaceLRU)
	c.Insert(0)
	c.Insert(1)
	// Re-inserting a resident line evicts nothing.
	if _, has := c.PeekVictim(0); has {
		t.Fatal("resident line insert has no victim")
	}
}

func TestPeekVictimMatchesInsertLRU(t *testing.T) {
	c := mkCache(t, 4*32, 32, 4, config.ReplaceLRU)
	for la := uint64(0); la < 4; la++ {
		c.Insert(la)
	}
	c.Lookup(0) // 1 becomes LRU
	v, has := c.PeekVictim(100)
	if want, _ := c.Peek(1); !has || v != want {
		t.Fatalf("preview = %p, %v; line 1's frame is %p", v, has, want)
	}
	_, _, evicted := c.Insert(100)
	if evicted != 1 {
		t.Fatalf("insert evicted %d, preview said 1", evicted)
	}
}

func TestPeekVictimMatchesInsertFIFO(t *testing.T) {
	c := mkCache(t, 4*32, 32, 4, config.ReplaceFIFO)
	for la := uint64(0); la < 4; la++ {
		c.Insert(la)
	}
	c.Lookup(0)
	v, has := c.PeekVictim(100)
	if want, _ := c.Peek(0); !has || v != want {
		t.Fatalf("FIFO preview = %p, %v; line 0's frame is %p", v, has, want)
	}
}

func TestPeekVictimDoesNotMutate(t *testing.T) {
	c := mkCache(t, 2*32, 32, 2, config.ReplaceLRU)
	c.Insert(0)
	c.Insert(2)
	c.PeekVictim(4)
	c.PeekVictim(4)
	// LRU order unchanged: 0 is still the victim.
	_, _, evicted := c.Insert(4)
	if evicted != 0 {
		t.Fatalf("preview mutated LRU: evicted %d", evicted)
	}
}
