// Package prefetch implements the aggressive prefetch generators the
// pollution filter polices, and the prefetch queue through which accepted
// prefetches contend for L1 ports.
//
// Two hardware prefetchers from the paper are implemented:
//
//   - NSP, tagged next-sequence prefetching (Smith [16]): each L1 line has
//     a tag bit set when the line was prefetched; a demand access that
//     misses the L1 or hits a tagged line triggers a prefetch of the next
//     sequential line.
//   - SDP, shadow directory prefetching (Pomerene et al. [13]): every L2
//     line carries a shadow line address — the next line missed after the
//     resident line was last accessed — plus a confirmation bit recording
//     whether the last shadow prefetch was used.
//
// A reference-prediction-table stride prefetcher (Chen & Baer) is included
// as a design-space extension beyond the paper's evaluation.
package prefetch

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
)

// Candidate is a prefetch the generators propose; it flows through the
// pollution filter, then (if allowed) the prefetch queue.
type Candidate struct {
	LineAddr  uint64      // line to prefetch
	TriggerPC uint64      // PC of the instruction that triggered it
	Software  bool        // compiler-inserted prefetch instruction
	Source    core.Source // generator, for the filter's features and per-source statistics
}

// Event describes one demand access, as seen by the hardware prefetchers.
type Event struct {
	PC          uint64
	LineAddr    uint64
	Cycle       uint64 // cycle the access was made; drives latency-aware generators
	IsStore     bool
	L1Hit       bool
	L1HitTagged bool // hit line had its prefetch tag (PIB) set
	L2Hit       bool // meaningful only when !L1Hit
}

// Prefetcher observes demand accesses and emits candidates.
type Prefetcher interface {
	Name() string
	Observe(ev Event, emit func(Candidate))
}

// NSP is tagged next-sequence prefetching. The tag bit is the L1 line's
// PIB, which the hierarchy reports in Event.L1HitTagged; NSP itself is
// stateless beyond its degree.
type NSP struct {
	degree int

	Triggers uint64
}

// NewNSP builds an NSP issuing `degree` sequential lines per trigger
// (paper: 1).
func NewNSP(degree int) (*NSP, error) {
	if degree <= 0 {
		return nil, fmt.Errorf("prefetch: NSP degree must be positive, got %d", degree)
	}
	return &NSP{degree: degree}, nil
}

// Name implements Prefetcher.
func (n *NSP) Name() string { return "nsp" }

// Observe implements Prefetcher: trigger on an L1 miss or on a hit to a
// tagged (prefetched) line.
func (n *NSP) Observe(ev Event, emit func(Candidate)) {
	if ev.L1Hit && !ev.L1HitTagged {
		return
	}
	n.Triggers++
	for i := 1; i <= n.degree; i++ {
		emit(Candidate{
			LineAddr:  ev.LineAddr + uint64(i),
			TriggerPC: ev.PC,
			Source:    core.SrcNSP,
		})
	}
}

// SDP is shadow-directory prefetching. Its per-line state (shadow address,
// shadow-valid, confirmation bit) lives in the L2 cache's line metadata,
// exactly where the paper puts it.
type SDP struct {
	l2 *cache.Cache
	// lastLine is the most recently accessed L2 line; the next L2 miss
	// becomes its shadow.
	lastLine  uint64
	lastValid bool
	// pending associates an issued shadow line with the resident line
	// that predicted it, so a demand reference to the shadow can set the
	// predictor line's confirmation bit. Hardware keeps this association
	// implicitly via the prefetched line's tag — a bounded structure —
	// so the software model uses a direct-mapped table of the same
	// spirit: a colliding insert evicts the older association, exactly
	// as a hardware tag can only remember one owner.
	pending sdpPendingTable

	Triggers  uint64
	Confirmed uint64
}

// sdpPendingLog2 sizes the shadow→owner association table. 2^12 covers
// every line of the Table 1 L2 with headroom; the unbounded map it
// replaces leaked one entry per never-confirmed shadow for the whole
// run (and was flagged by hwbudget/map as unrealizable in hardware).
const sdpPendingLog2 = 12

// sdpPendingTable is a direct-mapped shadow→owner table, indexed by the
// shadow line address's low bits with the full address as tag.
type sdpPendingTable struct {
	shadow []uint64
	owner  []uint64
	valid  []bool
}

func newSDPPendingTable() sdpPendingTable {
	return sdpPendingTable{
		shadow: make([]uint64, 1<<sdpPendingLog2),
		owner:  make([]uint64, 1<<sdpPendingLog2),
		valid:  make([]bool, 1<<sdpPendingLog2),
	}
}

func (t *sdpPendingTable) index(shadow uint64) uint64 {
	return shadow & (1<<sdpPendingLog2 - 1)
}

// put records shadow→owner, evicting whatever association occupied the
// slot (the hardware tag can only remember one owner).
func (t *sdpPendingTable) put(shadow, owner uint64) {
	i := t.index(shadow)
	t.shadow[i], t.owner[i], t.valid[i] = shadow, owner, true
}

// take looks up and invalidates the association for shadow, if present.
func (t *sdpPendingTable) take(shadow uint64) (owner uint64, ok bool) {
	i := t.index(shadow)
	if !t.valid[i] || t.shadow[i] != shadow {
		return 0, false
	}
	t.valid[i] = false
	return t.owner[i], true
}

// NewSDP builds an SDP over the given L2 cache.
func NewSDP(l2 *cache.Cache) (*SDP, error) {
	if l2 == nil {
		return nil, fmt.Errorf("prefetch: SDP requires an L2 cache")
	}
	return &SDP{l2: l2, pending: newSDPPendingTable()}, nil
}

// Name implements Prefetcher.
func (s *SDP) Name() string { return "sdp" }

// Observe implements Prefetcher. Every demand access that reaches the L2
// (i.e. missed the L1) drives the shadow directory.
func (s *SDP) Observe(ev Event, emit func(Candidate)) {
	if ev.L1Hit {
		return // the L2 never sees this access
	}
	// A demand reference to a line that was issued as a shadow prefetch
	// confirms the predictor line's shadow.
	if owner, ok := s.pending.take(ev.LineAddr); ok {
		if line, resident := s.l2.Peek(owner); resident {
			line.Confirm = true
			s.Confirmed++
		}
	}

	if !ev.L2Hit {
		// This is the "next line missed": it becomes the shadow of the
		// previously accessed resident line.
		if s.lastValid {
			if line, resident := s.l2.Peek(s.lastLine); resident {
				if !line.ShadowValid || line.Shadow != ev.LineAddr {
					line.Shadow = ev.LineAddr
					line.ShadowValid = true
					line.Confirm = true // optimistic on a fresh shadow
				}
			}
		}
	} else {
		// Hit in L2: if the resident line has a confirmed shadow, prefetch it.
		if line, resident := s.l2.Peek(ev.LineAddr); resident && line.ShadowValid && line.Confirm {
			s.Triggers++
			line.Confirm = false // must be re-confirmed by an actual use
			s.pending.put(line.Shadow, ev.LineAddr)
			emit(Candidate{
				LineAddr:  line.Shadow,
				TriggerPC: ev.PC,
				Source:    core.SrcSDP,
			})
		}
	}
	s.lastLine = ev.LineAddr
	s.lastValid = true
}

// rptState is the 2-bit state machine of a reference prediction table
// entry (Chen & Baer): initial → transient → steady; no-prediction on
// repeated mismatches.
type rptState uint8

const (
	rptInitial rptState = iota
	rptTransient
	rptSteady
	rptNoPred
)

type rptEntry struct {
	valid    bool
	tag      uint64
	lastAddr uint64
	stride   int64
	state    rptState
}

// Stride is a PC-indexed reference prediction table prefetcher.
type Stride struct {
	entries []rptEntry
	mask    uint64

	Triggers uint64
}

// NewStride builds an RPT with the given power-of-two entry count.
func NewStride(entries int) (*Stride, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("prefetch: stride entries must be a positive power of two, got %d", entries)
	}
	return &Stride{entries: make([]rptEntry, entries), mask: uint64(entries - 1)}, nil
}

// Name implements Prefetcher.
func (s *Stride) Name() string { return "stride" }

// Observe implements Prefetcher: classic RPT state transitions on every
// demand access; prefetch lastAddr+stride in steady state.
func (s *Stride) Observe(ev Event, emit func(Candidate)) {
	idx := (ev.PC >> 2) & s.mask
	tag := (ev.PC >> 2) >> 12 // disambiguate beyond the index bits
	e := &s.entries[idx]
	if !e.valid || e.tag != tag {
		*e = rptEntry{valid: true, tag: tag, lastAddr: ev.LineAddr, stride: 0, state: rptInitial}
		return
	}
	stride := int64(ev.LineAddr) - int64(e.lastAddr)
	match := stride == e.stride && stride != 0
	switch e.state {
	case rptInitial:
		if match {
			e.state = rptSteady
		} else {
			e.stride = stride
			e.state = rptTransient
		}
	case rptTransient:
		if match {
			e.state = rptSteady
		} else {
			e.stride = stride
			e.state = rptNoPred
		}
	case rptSteady:
		if !match {
			e.state = rptInitial
			e.stride = stride
		}
	case rptNoPred:
		if match {
			e.state = rptTransient
		} else {
			e.stride = stride
		}
	}
	e.lastAddr = ev.LineAddr
	if e.state == rptSteady && e.stride != 0 {
		next := int64(ev.LineAddr) + e.stride
		if next > 0 {
			s.Triggers++
			emit(Candidate{LineAddr: uint64(next), TriggerPC: ev.PC, Source: core.SrcStride})
		}
	}
}

// Composite fans one event out to several prefetchers in order.
type Composite struct {
	//pflint:allow hwbudget/unsized aggregate of already-budgeted generators, fixed at construction and bounded by the enabled-generator count; no table of its own
	parts []Prefetcher
}

// NewComposite combines prefetchers; a nil or empty list is valid and
// generates nothing.
func NewComposite(parts ...Prefetcher) *Composite { return &Composite{parts: parts} }

// Name implements Prefetcher.
func (c *Composite) Name() string { return "composite" }

// Observe implements Prefetcher.
func (c *Composite) Observe(ev Event, emit func(Candidate)) {
	for _, p := range c.parts {
		p.Observe(ev, emit)
	}
}

// Parts exposes the underlying prefetchers.
func (c *Composite) Parts() []Prefetcher { return c.parts }
