// Package deadblock implements a dead-block predictor in the spirit of
// Lai, Fide and Falsafi, "Dead-block Prediction and Dead-block
// Correlating Prefetchers" (the paper's reference [11]), adapted as a
// pollution-control baseline.
//
// Lai et al. attack the same problem as the pollution filter from the
// opposite side: instead of asking "will this prefetched line be used?",
// they ask "is the line this prefetch would *displace* already dead?" and
// let prefetches replace only dead lines, so useful data is never evicted
// early. This package provides:
//
//   - Predictor: a last-touch predictor. Every L1 line carries a
//     signature — a hash of the PC of its most recent demand access
//     (cache.L1Line.DeadSig). When a line is evicted without any further
//     access, the signature that touched it last is trained "dead after
//     this PC"; when the line is accessed again, its previous signature
//     is trained "still live". A line whose current signature predicts
//     dead is considered safe to replace.
//
//   - Gate: the admission rule the hierarchy consults before enqueueing a
//     prefetch — allow iff the target set has a free frame or its victim
//     is predicted dead.
//
// The predictor reuses the same 2-bit saturating counter fabric as the
// pollution filter's history table, so the two baselines differ only in
// what they predict, not in how much hardware they spend.
package deadblock

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/predictor"
)

// Predictor is the last-touch dead-block predictor.
type Predictor struct {
	counters []predictor.SatCounter
	mask     uint64

	// Stats.
	TrainDead uint64 // evictions of never-re-touched lines
	TrainLive uint64 // re-accesses that refuted a pending signature
	Queries   uint64
	DeadPreds uint64
}

// New allocates a predictor with the given power-of-two entry count.
// Counters start at strongly-live (0): a signature must demonstrate
// dead-after behaviour before the gate trusts it, mirroring the pollution
// filter's allow-first-touch stance (here: protect-first-touch).
func New(entries int) (*Predictor, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("deadblock: entries must be a positive power of two, got %d", entries)
	}
	return &Predictor{
		counters: make([]predictor.SatCounter, entries),
		mask:     uint64(entries - 1),
	}, nil
}

// Entries returns the table length.
func (p *Predictor) Entries() int { return len(p.counters) }

// sig hashes an access PC into a table signature. The low instruction
// bits are stripped; multiplicative mixing spreads call-dense code.
func (p *Predictor) sig(pc uint64) uint64 {
	return ((pc >> 2) * 0x9e3779b97f4a7c15) & p.mask
}

// OnAccess records a demand access to a resident line: the line's
// previous signature (if any) evidently was not its last touch, so it
// trains live; the new access becomes the pending last-touch candidate.
func (p *Predictor) OnAccess(line *cache.L1Line, pc uint64) {
	if line.DeadSig != 0 {
		idx := (line.DeadSig - 1) & p.mask
		p.counters[idx] = p.counters[idx].Dec()
		p.TrainLive++
	}
	// Store sig+1 so that zero can mean "none recorded".
	line.DeadSig = p.sig(pc) + 1
}

// OnFill seeds a freshly installed line's signature from the filling
// access's PC.
func (p *Predictor) OnFill(line *cache.L1Line, pc uint64) {
	line.DeadSig = p.sig(pc) + 1
}

// OnEvict trains the evicted line's pending signature as a last touch.
func (p *Predictor) OnEvict(line cache.L1Line) {
	if line.DeadSig == 0 {
		return
	}
	idx := (line.DeadSig - 1) & p.mask
	p.counters[idx] = p.counters[idx].Inc()
	p.TrainDead++
}

// PredictDead reports whether the line's current signature predicts that
// its last access has already happened (counter >= 2, the same threshold
// convention as the pollution filter).
func (p *Predictor) PredictDead(line *cache.L1Line) bool {
	p.Queries++
	if line.DeadSig == 0 {
		return false // never touched since fill: treat as live
	}
	idx := (line.DeadSig - 1) & p.mask
	dead := p.counters[idx] >= predictor.WeakTaken
	if dead {
		p.DeadPreds++
	}
	return dead
}

// AllowPrefetch is the admission gate: a prefetch for lineAddr may
// proceed iff installing it would not evict a live line from l1.
func (p *Predictor) AllowPrefetch(l1 *cache.L1, lineAddr uint64) bool {
	victim, hasVictim := l1.PeekVictim(lineAddr)
	if !hasVictim {
		return true // free frame (or duplicate): nothing useful displaced
	}
	return p.PredictDead(victim)
}

// ResetStats zeroes the counters' statistics (warmup boundary); the
// prediction table stays warm.
func (p *Predictor) ResetStats() {
	p.TrainDead, p.TrainLive, p.Queries, p.DeadPreds = 0, 0, 0, 0
}
