package prefetch

import (
	"fmt"

	"repro/internal/core"
)

// GHB is a PC/delta-correlation prefetcher built on a Global History
// Buffer (Nesbit & Smith): misses enter a FIFO ring, an index table
// maps each PC to its newest ring entry, and entries are chained by
// absolute position so a PC's miss history can be reconstructed without
// per-PC storage. Predictions come from matching the newest delta pair
// against the chain's past; the prefetch degree is accuracy-gated by
// useful-prefetch counters over a fixed issue window, escalating only
// while at least a quarter of issued prefetches are demanded.
type GHB struct {
	addrs []uint64
	links []uint32 // previous same-PC position + 1; 0 = end of chain
	size  uint32
	n     uint32 // entries pushed so far; newest is at position n-1

	idxTags []uint64
	idxPos  []uint32 // newest position + 1; 0 = invalid
	idxMask uint64

	issuedTags []uint64
	issuedMask uint64

	degree       int
	maxDegree    int
	windowIssued uint32
	windowUseful uint32

	// Scratch for chain walks, kept on the struct so Observe is
	// allocation-free.
	chain  [ghbChainLen]uint64
	deltas [ghbChainLen - 1]int64

	Triggers      uint64 // candidates emitted
	Useful        uint64 // issued prefetches later demanded
	Escalations   uint64 // degree increases
	DeEscalations uint64 // degree decreases
}

const (
	ghbChainLen    = 12 // miss addresses reconstructed per prediction
	ghbWindow      = 64 // issued prefetches per accuracy window
	ghbAccuracyMul = 4  // escalate while useful*4 >= issued (≥ 25%)
)

// NewGHB builds a GHB with 2^bufLog2 history entries, a 2^indexLog2 PC
// index table, and an accuracy-gated degree in [1, maxDegree].
func NewGHB(bufLog2, indexLog2, maxDegree int) (*GHB, error) {
	if bufLog2 < 1 || bufLog2 > 30 {
		return nil, fmt.Errorf("prefetch: ghb log2 budget must be in [1,30], got %d", bufLog2)
	}
	if indexLog2 < 1 || indexLog2 > 30 {
		return nil, fmt.Errorf("prefetch: ghb index log2 budget must be in [1,30], got %d", indexLog2)
	}
	if maxDegree < 1 {
		return nil, fmt.Errorf("prefetch: ghb max degree must be positive, got %d", maxDegree)
	}
	bufN := uint32(1) << bufLog2
	idxN := 1 << indexLog2
	return &GHB{
		addrs:      make([]uint64, bufN),
		links:      make([]uint32, bufN),
		size:       bufN,
		idxTags:    make([]uint64, idxN),
		idxPos:     make([]uint32, idxN),
		idxMask:    uint64(idxN - 1),
		issuedTags: make([]uint64, idxN),
		issuedMask: uint64(idxN - 1),
		degree:     1,
		maxDegree:  maxDegree,
	}, nil
}

// Name implements Prefetcher.
func (g *GHB) Name() string { return "ghb" }

// Degree is the current accuracy-gated prefetch degree, in
// [1, maxDegree].
func (g *GHB) Degree() int { return g.degree }

// Observe implements Prefetcher: every access probes the issued table
// for usefulness accounting; only L1 misses enter the history buffer
// and can trigger predictions.
func (g *GHB) Observe(ev Event, emit func(Candidate)) {
	g.probeIssued(ev.LineAddr)
	if ev.L1Hit {
		return
	}

	// Push the miss and chain it to this PC's previous miss.
	idx := pcIndex(ev.PC) & g.idxMask
	var prev uint32
	if g.idxTags[idx] == ev.PC {
		prev = g.idxPos[idx]
	}
	pos := g.n % g.size
	g.addrs[pos] = ev.LineAddr
	// Strict < here, not valid()'s <=: before g.n advances, an entry at
	// distance exactly size lives in the very ring slot this push
	// overwrites, so linking to it would store a self-referential link.
	if prev != 0 && g.n-(prev-1) < g.size {
		g.links[pos] = prev
	} else {
		g.links[pos] = 0
	}
	g.n++
	g.idxTags[idx] = ev.PC
	g.idxPos[idx] = g.n // position n-1, stored +1

	depth := g.reconstruct(g.n)
	if depth < 4 {
		return
	}
	for i := 0; i < depth-1; i++ {
		g.deltas[i] = int64(g.chain[i]) - int64(g.chain[i+1])
	}
	// Match the newest delta pair against its most recent past
	// occurrence; the deltas that followed it predict what comes next.
	// When no pair recurs, fall back to the newest single delta — the
	// weaker correlation still captures streams whose gaps vary.
	match := -1
	for i := 2; i < depth-2; i++ {
		if g.deltas[i] == g.deltas[0] && g.deltas[i+1] == g.deltas[1] {
			match = i
			break
		}
	}
	if match < 0 {
		for i := 1; i < depth-1; i++ {
			if g.deltas[i] == g.deltas[0] {
				match = i
				break
			}
		}
	}
	if match >= 0 {
		addr := int64(ev.LineAddr)
		for d := 0; d < g.degree && match-1-d >= 0; d++ {
			addr += g.deltas[match-1-d]
			if addr <= 0 {
				break
			}
			tgt := uint64(addr)
			g.Triggers++
			g.issuedTags[tgt&g.issuedMask] = tgt
			g.windowIssued++
			emit(Candidate{LineAddr: tgt, TriggerPC: ev.PC, Source: core.SrcGHB})
		}
	}
	g.gateDegree()
}

// valid reports whether a stored position+1 still points inside the
// ring; entries older than size have been overwritten.
//
//pflint:hotpath
func (g *GHB) valid(p1 uint32) bool {
	return p1 != 0 && g.n-(p1-1) <= g.size
}

// reconstruct walks the same-PC link chain starting from stored
// position p1 (position+1), filling g.chain newest-first, and returns
// how many addresses were recovered.
//
//pflint:hotpath
func (g *GHB) reconstruct(p1 uint32) int {
	depth := 0
	for depth < ghbChainLen && g.valid(p1) {
		pos := (p1 - 1) % g.size
		g.chain[depth] = g.addrs[pos]
		depth++
		p1 = g.links[pos]
	}
	return depth
}

// probeIssued checks whether a demand access hits a line we prefetched;
// hits feed the accuracy window that gates the degree.
//
//pflint:hotpath
func (g *GHB) probeIssued(line uint64) {
	idx := line & g.issuedMask
	if g.issuedTags[idx] != line || line == 0 {
		return
	}
	g.issuedTags[idx] = 0
	g.Useful++
	g.windowUseful++
}

// gateDegree closes each accuracy window: escalate the degree while at
// least 1/ghbAccuracyMul of issued prefetches proved useful, otherwise
// de-escalate, never leaving [1, maxDegree].
//
//pflint:hotpath
func (g *GHB) gateDegree() {
	if g.windowIssued < ghbWindow {
		return
	}
	if g.windowUseful*ghbAccuracyMul >= g.windowIssued {
		if g.degree < g.maxDegree {
			g.degree++
			g.Escalations++
		}
	} else if g.degree > 1 {
		g.degree--
		g.DeEscalations++
	}
	g.windowIssued = 0
	g.windowUseful = 0
}
