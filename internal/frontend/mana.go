package frontend

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
)

// MANA is a MANA-lite spatial-region instruction prefetcher (after
// Ansari et al., "MANA: Microarchitecting an Instruction Prefetcher",
// arXiv 2102.01764). The fetch stream is divided into spatial regions
// of 2^regionLog2 consecutive instruction blocks; while the front end
// executes inside a region the prefetcher records which blocks it
// touches as a footprint bitvector, and when the region is left the
// footprint is committed to a direct-indexed record table keyed by the
// trigger PC that *entered* the region. Re-entering a region through a
// PC whose record hits replays the recorded footprint as prefetch
// candidates, bounded by the configured degree. Both tables are
// bounded log2-sized budgets: 2^recordsLog2 records of one tag plus one
// 64-bit footprint each.
type MANA struct {
	recs []manaRecord
	mask uint64

	regionLog2 uint
	regionMask uint64
	offBits    uint

	degree int

	// live in-flight region being recorded
	recording bool
	curRegion uint64
	trigPC    uint64
	footprint uint64
}

type manaRecord struct {
	tag       uint64
	footprint uint64
	live      bool
}

// NewMANA builds the prefetcher from its log2 budgets. recordsLog2
// sizes the record table, regionLog2 the spatial region in blocks
// (at most 6: footprints are one 64-bit word).
func NewMANA(recordsLog2, regionLog2, degree, lineBytes int) (*MANA, error) {
	if recordsLog2 <= 0 || recordsLog2 > 16 {
		return nil, fmt.Errorf("frontend: mana records log2 budget must be in [1,16], got %d", recordsLog2)
	}
	if regionLog2 <= 0 || regionLog2 > 6 {
		return nil, fmt.Errorf("frontend: mana region log2 must be in [1,6], got %d", regionLog2)
	}
	if degree <= 0 {
		return nil, fmt.Errorf("frontend: mana degree must be positive, got %d", degree)
	}
	m := &MANA{
		recs:       make([]manaRecord, 1<<recordsLog2),
		mask:       uint64(1<<recordsLog2) - 1,
		regionLog2: uint(regionLog2),
		regionMask: uint64(1<<regionLog2) - 1,
		degree:     degree,
	}
	for b := lineBytes; b > 1; b >>= 1 {
		m.offBits++
	}
	return m, nil
}

// Name implements Prefetcher.
func (m *MANA) Name() string { return "mana" }

// index maps a trigger PC onto the record table. PCs are
// instruction-aligned, so the low address bits are dropped before
// masking to spread adjacent triggers across entries.
//
//pflint:hotpath
func (m *MANA) index(pc uint64) uint64 {
	return (pc / isa.InstrBytes) & m.mask
}

// Observe implements Prefetcher: accumulate the footprint while inside
// the current region; on a region change, commit the finished
// footprint under its trigger PC and replay the record (if any) for
// the region being entered.
//
//pflint:hotpath
func (m *MANA) Observe(ev Event, emit func(Candidate)) {
	blockIdx := ev.Block >> m.offBits
	region := blockIdx >> m.regionLog2
	bit := blockIdx & m.regionMask
	if m.recording && region == m.curRegion {
		m.footprint |= 1 << bit
		return
	}
	m.commit()
	// Replay the committed footprint for the region entered through
	// this trigger PC, skipping the block being fetched right now and
	// capping at degree candidates.
	if r := &m.recs[m.index(ev.PC)]; r.live && r.tag == ev.PC {
		issued := 0
		base := region << m.regionLog2
		for i := uint64(0); i <= m.regionMask && issued < m.degree; i++ {
			if i == bit || r.footprint&(1<<i) == 0 {
				continue
			}
			emit(Candidate{
				Block:     (base + i) << m.offBits,
				TriggerPC: ev.PC,
				Source:    core.SrcIMANA,
			})
			issued++
		}
	}
	m.recording = true
	m.curRegion = region
	m.trigPC = ev.PC
	m.footprint = 1 << bit
}

// commit stores the in-flight region footprint under its trigger PC.
//
//pflint:hotpath
func (m *MANA) commit() {
	if !m.recording {
		return
	}
	r := &m.recs[m.index(m.trigPC)]
	r.tag = m.trigPC
	r.footprint = m.footprint
	r.live = true
}

// Lookup returns the committed footprint recorded under trigger PC pc,
// if any — a test hook into the record table.
func (m *MANA) Lookup(pc uint64) (footprint uint64, ok bool) {
	r := m.recs[m.index(pc)]
	if !r.live || r.tag != pc {
		return 0, false
	}
	return r.footprint, true
}
