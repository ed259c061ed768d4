// Package pbuffer implements the dedicated prefetch buffer baseline of
// §5.5 (Chen et al. [5]): a small fully-associative buffer, probed in
// parallel with the L1 data cache, into which prefetched lines are
// allocated instead of the L1.
//
// A demand access that misses the L1 but hits the buffer promotes the line
// into the L1 (a referenced — good — prefetch). A line evicted from the
// buffer without ever being referenced is a bad prefetch. The buffer keeps
// the same PIB/RIB-style metadata as L1 lines so the pollution filter can
// be trained from buffer evictions when both mechanisms are combined.
package pbuffer

import (
	"fmt"

	"repro/internal/core"
)

// Entry is one buffered prefetched line.
type Entry struct {
	Valid      bool
	LineAddr   uint64
	TriggerPC  uint64
	Software   bool
	Source     core.Source // generator of the prefetch
	Referenced bool
	lru        uint64
}

// Buffer is the fully-associative prefetch buffer with true-LRU
// replacement (paper default: 16 entries).
type Buffer struct {
	entries []Entry
	tick    uint64

	Fills      uint64 // prefetched lines allocated
	Hits       uint64 // demand accesses satisfied by the buffer
	Evictions  uint64
	GoodEvicts uint64 // evicted after being referenced (promoted lines count here too)
	BadEvicts  uint64 // evicted without reference
}

// New builds a buffer with the given capacity.
func New(entries int) (*Buffer, error) {
	if entries <= 0 {
		return nil, fmt.Errorf("pbuffer: entries must be positive, got %d", entries)
	}
	return &Buffer{entries: make([]Entry, entries)}, nil
}

// Capacity returns the number of entry frames.
func (b *Buffer) Capacity() int { return len(b.entries) }

// ValidEntries counts resident lines.
func (b *Buffer) ValidEntries() int {
	n := 0
	for i := range b.entries {
		if b.entries[i].Valid {
			n++
		}
	}
	return n
}

// Contains reports residency without disturbing LRU state.
func (b *Buffer) Contains(lineAddr uint64) bool {
	for i := range b.entries {
		if b.entries[i].Valid && b.entries[i].LineAddr == lineAddr {
			return true
		}
	}
	return false
}

// Probe looks the line up on the demand path. On a hit the entry is marked
// referenced, removed from the buffer (the caller promotes it into the L1),
// and returned. Probing is what real hardware does in parallel with the L1
// tag match.
func (b *Buffer) Probe(lineAddr uint64) (Entry, bool) {
	for i := range b.entries {
		if b.entries[i].Valid && b.entries[i].LineAddr == lineAddr {
			b.Hits++
			e := b.entries[i]
			e.Referenced = true
			// Promotion removes the line from the buffer; it now lives in L1.
			b.entries[i] = Entry{}
			return e, true
		}
	}
	return Entry{}, false
}

// Insert allocates a prefetched line, evicting the LRU entry if full. The
// evicted entry (if any) is returned for filter training. Inserting an
// already-resident line refreshes its recency and reports no eviction.
func (b *Buffer) Insert(lineAddr, triggerPC uint64, software bool, source core.Source) (evicted Entry, hadEviction bool) {
	b.tick++
	slot := -1
	for i := range b.entries {
		if b.entries[i].Valid && b.entries[i].LineAddr == lineAddr {
			b.entries[i].lru = b.tick
			return Entry{}, false
		}
	}
	for i := range b.entries {
		if !b.entries[i].Valid {
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = 0
		for i := range b.entries {
			if b.entries[i].lru < b.entries[slot].lru {
				slot = i
			}
		}
		evicted = b.entries[slot]
		hadEviction = true
		b.Evictions++
		if evicted.Referenced {
			b.GoodEvicts++
		} else {
			b.BadEvicts++
		}
	}
	b.entries[slot] = Entry{
		Valid:     true,
		LineAddr:  lineAddr,
		TriggerPC: triggerPC,
		Software:  software,
		Source:    source,
		lru:       b.tick,
	}
	b.Fills++
	return evicted, hadEviction
}

// Drain invalidates every entry, returning them for end-of-run
// classification.
func (b *Buffer) Drain() []Entry {
	var out []Entry
	for i := range b.entries {
		if b.entries[i].Valid {
			out = append(out, b.entries[i])
			b.entries[i] = Entry{}
		}
	}
	return out
}
