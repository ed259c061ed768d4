// Package frontend is the I-side of the machine: a fetch model that
// turns the retired instruction stream (synthetic workloads and PFTC
// traces alike flow through isa.Record, so both carry real PCs and
// taken-branch targets) into a cache-block instruction-fetch stream,
// plus a registry of config-constructible instruction prefetchers that
// observe that stream and emit block candidates. The hierarchy wires
// the fetch stream into an L1I beside the existing L1D→L2 path; this
// package deliberately knows nothing about caches or timing so the
// backends stay unit-testable in isolation.
package frontend

import "repro/internal/core"

// Event is one step of the fetch-block stream: the front end crossed
// into a new instruction cache block. Same-block fetches are absorbed
// by the fetch unit and never become events.
type Event struct {
	// Block is the line-aligned address of the instruction block being
	// fetched (PC with the intra-line offset bits cleared).
	Block uint64
	// PC is the first instruction address fetched in the block — the
	// trigger PC instruction prefetchers key their tables on.
	PC uint64
	// Redirect is true when the block was entered by a control-flow
	// redirect (taken branch, or any non-sequential PC change) rather
	// than sequential fall-through from the previous block.
	Redirect bool
	// Miss is true when the block missed in the L1I; set by the
	// hierarchy before the event reaches the prefetcher.
	Miss bool
}

// Candidate is one instruction-prefetch request emitted by a backend.
type Candidate struct {
	// Block is the line-aligned address of the block to prefetch.
	Block uint64
	// TriggerPC is the fetch PC that triggered the candidate; it rides
	// into the L1I line for eviction-time filter training.
	TriggerPC uint64
	// Source identifies the generating backend for the pollution
	// filter's per-source provenance.
	Source core.Source
}

// Prefetcher is one instruction-prefetch backend. Observe sees every
// fetch-block event in program order and may emit any number of
// candidates through emit; the hierarchy applies squash, filter, and
// queue-capacity policy downstream.
type Prefetcher interface {
	Name() string
	Observe(ev Event, emit func(Candidate))
}

// FetchUnit collapses an instruction-address stream into the
// fetch-block stream: one event per block transition, tagged with
// whether the transition was sequential or a redirect. Both the
// hierarchy (live fetch path) and the tracefile fetch-stream adapter
// embed one so synthetic and trace-driven streams agree by
// construction.
type FetchUnit struct {
	offBits  uint
	curBlock uint64
	live     bool
}

// NewFetchUnit returns a fetch unit for the given instruction-cache
// line size, which must be a power of two.
func NewFetchUnit(lineBytes int) FetchUnit {
	bits := uint(0)
	for b := lineBytes; b > 1; b >>= 1 {
		bits++
	}
	return FetchUnit{offBits: bits}
}

// Step advances the fetch unit to pc. It returns the line-aligned
// block address, whether the fetch crossed into a new block (only then
// does the front end touch the L1I), and whether the crossing was a
// redirect rather than sequential fall-through.
//
//pflint:hotpath
func (u *FetchUnit) Step(pc uint64) (block uint64, newBlock, redirect bool) {
	b := pc >> u.offBits
	if u.live && b == u.curBlock {
		return b << u.offBits, false, false
	}
	redirect = u.live && b != u.curBlock+1
	u.curBlock = b
	u.live = true
	return b << u.offBits, true, redirect
}

// Reset clears the fetch unit to its initial (no current block) state;
// the next Step always reports a new block.
func (u *FetchUnit) Reset() {
	u.live = false
	u.curBlock = 0
}
