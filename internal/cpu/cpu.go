// Package cpu implements the out-of-order core timing model that drives
// the memory hierarchy.
//
// The model reproduces the structural parameters of Table 1 — 8-wide
// issue/retire, 128-entry reorder buffer, 64-entry load/store queue,
// bimodal branch predictor with a 4-way 4096-set BTB — at trace level:
// instructions arrive pre-decoded from an isa.Source, so the model tracks
// occupancy and latency rather than register semantics. What it captures,
// and what the paper's results hinge on, is:
//
//   - limited L1 ports shared between demand accesses and the prefetch
//     queue (prefetches get leftover ports only);
//   - in-order retirement bounded by the ROB, so long-latency misses at
//     the ROB head stall the pipeline;
//   - serialized pointer-chasing loads via the trace's Dep flag, which
//     removes memory-level parallelism exactly where real pointer codes
//     lose it;
//   - branch mispredictions as fetch stalls.
package cpu

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/hier"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/predictor"
)

const notReady = ^uint64(0)

// robEntry is one in-flight instruction: 32 bytes, words first.
type robEntry struct {
	pc      uint64
	addr    uint64
	readyAt uint64 // completion cycle; notReady until known
	op      isa.Op
	dep     bool // serialized behind the previous entry
	isStore bool
}

// Result aggregates what one run produced at the core level.
type Result struct {
	Instructions uint64
	Cycles       uint64

	Loads    uint64
	Stores   uint64
	Branches uint64
	SoftPF   uint64
	ALUOps   uint64

	BranchPredictions    uint64
	BranchMispredictions uint64

	// PortConflictCycles counts cycles in which at least one ready demand
	// memory op could not issue because all L1 ports were taken.
	PortConflictCycles uint64
	// PrefetchPortWaits counts cycles the prefetch queue held work but
	// demand accesses had consumed every L1 port — the §5.4
	// procrastination pressure.
	PrefetchPortWaits uint64
	// ROBStallCycles counts cycles dispatch was blocked by a full ROB.
	ROBStallCycles uint64
	// LSQStallCycles counts cycles dispatch was blocked by a full LSQ.
	LSQStallCycles uint64
	// MSHRStallCycles counts cycles at least one ready load could not
	// issue because all miss-status registers were in use (only with
	// cfg.MSHRs > 0).
	MSHRStallCycles uint64
	// FetchStallCycles counts cycles the front end stalled on an L1I
	// fetch miss (only when the I-side front end is modelled).
	FetchStallCycles uint64
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// CPU is the core model. Create one per run.
type CPU struct {
	cfg    config.CPUConfig
	h      *hier.Hierarchy
	branch *predictor.Unit

	rob     []robEntry
	robMask uint64 // len(rob)-1 when the ROB size is a power of two, else 0
	robLen  uint64
	robHead uint64 // sequence number of the oldest in-flight instruction
	robTail uint64 // sequence number the next dispatched instruction gets

	lsqCount int
	// waiting is the LSQ's issue list: the sequence numbers of the
	// dispatched-but-unissued loads and stores, in program order. They are
	// a subset of the lsqCount LSQ entries, so its capacity is LSQEntries.
	waiting []uint64

	// outstanding holds the completion cycles of in-flight demand load
	// misses, for the optional MSHR bound (cfg.MSHRs > 0). Loads only:
	// stores drain through the store buffer. Its capacity is MSHRs.
	outstanding []uint64

	fetchStallUntil uint64

	// in buffers the records read ahead of dispatch.
	in feed

	// met, when non-nil, receives the core-level results as "sim.cpu.*"
	// gauges when Run returns. Attachment is end-of-run only — nothing
	// touches the registry inside the cycle loop — so instrumentation
	// cannot perturb timing or throughput.
	met *metrics.Registry

	res Result
}

// New builds a core over the given hierarchy.
func New(cfg config.CPUConfig, h *hier.Hierarchy) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if h == nil {
		return nil, fmt.Errorf("cpu: hierarchy must not be nil")
	}
	bu, err := predictor.NewUnit(cfg.BimodalEntries, cfg.BTBSets, cfg.BTBAssoc)
	if err != nil {
		return nil, err
	}
	c := &CPU{cfg: cfg, h: h, branch: bu, rob: make([]robEntry, cfg.ROBEntries), robLen: uint64(cfg.ROBEntries),
		waiting: make([]uint64, 0, cfg.LSQEntries), outstanding: make([]uint64, 0, cfg.MSHRs)}
	if n := uint64(cfg.ROBEntries); n&(n-1) == 0 {
		// Power-of-two ROB (the Table 1 machine): slot() becomes a mask
		// instead of an integer division, which profiles as ~30% of the
		// whole cycle loop otherwise.
		c.robMask = n - 1
	}
	return c, nil
}

// Release hands the branch unit's BTB array back for the next core's.
// The core must not be used afterwards.
func (c *CPU) Release() { c.branch.BTB.Release() }

// Branch exposes the branch unit (stats, tests).
func (c *CPU) Branch() *predictor.Unit { return c.branch }

// AttachMetrics registers the registry that receives the core's results
// when Run completes. A nil registry detaches.
func (c *CPU) AttachMetrics(reg *metrics.Registry) { c.met = reg }

// dumpMetrics exports the final Result as "sim.cpu.*" gauges.
func (c *CPU) dumpMetrics() {
	reg := c.met
	if reg == nil {
		return
	}
	set := func(name string, v uint64) { reg.Counter("sim.cpu." + name).Set(v) }
	set("instructions", c.res.Instructions)
	set("cycles", c.res.Cycles)
	set("loads", c.res.Loads)
	set("stores", c.res.Stores)
	set("branches", c.res.Branches)
	set("software_prefetches", c.res.SoftPF)
	set("alu_ops", c.res.ALUOps)
	set("branch_predictions", c.res.BranchPredictions)
	set("branch_mispredictions", c.res.BranchMispredictions)
	set("port_conflict_cycles", c.res.PortConflictCycles)
	set("prefetch_port_waits", c.res.PrefetchPortWaits)
	set("rob_stall_cycles", c.res.ROBStallCycles)
	set("lsq_stall_cycles", c.res.LSQStallCycles)
	set("mshr_stall_cycles", c.res.MSHRStallCycles)
	set("fetch_stall_cycles", c.res.FetchStallCycles)
}

// slot maps a sequence number to its ROB frame.
//
//pflint:hotpath
func (c *CPU) slot(seq uint64) *robEntry {
	if c.robMask != 0 {
		return &c.rob[seq&c.robMask]
	}
	return &c.rob[seq%c.robLen]
}

// robFull reports whether fetch must stall for ROB space.
//
//pflint:hotpath
func (c *CPU) robFull() bool { return c.robTail-c.robHead >= uint64(len(c.rob)) }

// robEmpty reports whether the pipeline has drained.
//
//pflint:hotpath
func (c *CPU) robEmpty() bool { return c.robTail == c.robHead }

// idleUntil returns the next cycle after now in which a stage can act,
// given that every memory op still waiting to issue is held by its Dep
// predecessor, the earliest of which completes at depWake (notReady when
// none waits). While dispatch is blocked — by a fetch stall (an L1I miss
// or a branch redirect), a full ROB, or a memory op that found the LSQ
// full (lsqBlocked) — nothing changes until the stall ends, the ROB head
// completes, a held op's predecessor completes, or the hierarchy's
// NextEvent arrives; the cycles before the earliest of those are provably
// idle. A skipped cycle with fetch running would have stalled dispatch on
// the ROB, or failing that on the LSQ, and is charged to that counter here
// in bulk; no other per-cycle counter moves in an idle cycle.
//
//pflint:hotpath
func (c *CPU) idleUntil(now, depWake uint64, lsqBlocked bool) uint64 {
	fetchStalled := now+1 < c.fetchStallUntil
	robFull := c.robFull()
	if !fetchStalled && !robFull && !lsqBlocked {
		return now + 1
	}
	next := min(c.h.NextEvent(now), depWake)
	if fetchStalled {
		next = min(next, c.fetchStallUntil)
	}
	if !c.robEmpty() {
		next = min(next, c.slot(c.robHead).readyAt)
	}
	next = max(next, now+1)
	switch {
	case fetchStalled: // dispatch is not attempted, so nothing stalls it
	case robFull:
		c.res.ROBStallCycles += next - now - 1
	default:
		c.res.LSQStallCycles += next - now - 1
	}
	return next
}

// issue sends the waiting loads and stores to the L1, oldest first, and
// returns how many of the ports it used. An op with Dep is held until its
// immediate predecessor completes (a retired one is complete by
// definition). A held op and a load that finds every MSHR in use are
// skipped; the first op that finds every port used ends the walk. Issued
// ops leave the list, which stays in program order. stalled reports a
// ready op left waiting for a port or an MSHR; depWake is the earliest
// completion of a predecessor holding an op (notReady when none does).
//
//pflint:hotpath
func (c *CPU) issue(cycle uint64, ports int, l1lat uint64) (used int, stalled bool, depWake uint64) {
	mshrs := c.cfg.MSHRs
	if mshrs > 0 && len(c.outstanding) > 0 {
		// Retire completed misses from the MSHR file.
		n := 0
		for _, done := range c.outstanding {
			if done > cycle {
				c.outstanding[n] = done
				n++
			}
		}
		c.outstanding = c.outstanding[:n]
	}
	depWake = notReady
	blocked, mshrBlocked := false, false
	w := c.waiting
	kept, i := 0, 0
	for ; i < len(w); i++ {
		seq := w[i]
		e := c.slot(seq)
		if e.dep && seq > c.robHead {
			// notReady exceeds every cycle, so an unissued predecessor holds.
			if p := c.slot(seq - 1).readyAt; p > cycle {
				depWake = min(depWake, p)
				w[kept] = seq
				kept++
				continue
			}
		}
		if used >= ports {
			blocked = true
			kept += copy(w[kept:], w[i:])
			break
		}
		if mshrs > 0 && !e.isStore && len(c.outstanding) >= mshrs {
			// No free miss-status register: a potential miss cannot issue;
			// hits cannot be distinguished before tag access, so the load
			// waits.
			mshrBlocked = true
			w[kept] = seq
			kept++
			continue
		}
		used++
		doneAt := c.h.DemandAccess(cycle, e.pc, e.addr, e.isStore)
		if e.isStore {
			// Stores drain through a store buffer: they do not hold up
			// retirement once issued.
			e.readyAt = cycle + 1
		} else {
			e.readyAt = doneAt
			if mshrs > 0 && doneAt > cycle+l1lat {
				n := len(c.outstanding)
				c.outstanding = c.outstanding[:n+1]
				c.outstanding[n] = doneAt
			}
		}
	}
	c.waiting = w[:kept]
	if blocked {
		c.res.PortConflictCycles++
	}
	if mshrBlocked {
		c.res.MSHRStallCycles++
	}
	return used, blocked || mshrBlocked, depWake
}

// Run executes the trace until the source is exhausted (or warmup+maxInstr
// records, when maxInstr is positive) and the pipeline drains, returning
// core-level results. When warmup is positive, all statistics — the
// core's, the hierarchy's, and the filter's — are reset after `warmup`
// instructions retire, while cache, predictor, and history-table state
// stay warm; this measures steady-state behaviour the way the paper's
// long native runs do, without charging cold-start misses to the
// experiment. The hierarchy accumulates its own statistics during the
// run; the caller is responsible for calling h.Finish afterwards.
func (c *CPU) Run(src isa.Source, maxInstr, warmup int64) Result {
	var (
		cycle     uint64
		cycleBase uint64
		warm      = warmup <= 0 // true once measurement has started
	)
	if maxInstr > 0 && warmup > 0 {
		maxInstr += warmup
	}
	c.in = feed{src: src, limit: maxInstr}
	in := &c.in

	done := func() bool { return in.drained() && c.robEmpty() }

	// Run-constant machine parameters, hoisted out of the cycle loop
	// (Config() returns the whole config by value — copying it per cycle
	// shows up in profiles).
	ports := c.h.Config().L1.Ports
	l1lat := uint64(c.h.Config().L1.LatencyCycles)
	feEnabled := c.h.FrontendEnabled()

	for !done() {
		cycle++
		// Both per-cycle calls into the hierarchy are skipped when they
		// have nothing to do: Tick only completes in-flight fills, and
		// IssuePrefetches only drains the prefetch queue.
		if c.h.InFlight() > 0 {
			c.h.Tick(cycle)
		}

		if !warm && c.res.Instructions >= uint64(warmup) {
			warm = true
			cycleBase = cycle
			// Retirement overshoots the warmup boundary by up to the retire
			// width; those instructions belong to the measured window.
			over := c.res.Instructions - uint64(warmup)
			c.res = Result{Instructions: over}
			c.branch.Predictions, c.branch.Mispredictions = 0, 0
			c.h.ResetStats()
		}

		// --- Retire (in order) ---
		retired := 0
		for retired < c.cfg.RetireWidth && !c.robEmpty() {
			e := c.slot(c.robHead)
			if e.readyAt == notReady || e.readyAt > cycle {
				break
			}
			if e.op.IsMem() {
				c.lsqCount--
			}
			c.robHead++
			retired++
			c.res.Instructions++
		}

		// --- Dispatch (up to issue width) ---
		lsqBlocked := false
		if cycle >= c.fetchStallUntil {
			for i := 0; i < c.cfg.IssueWidth; i++ {
				if c.robFull() {
					c.res.ROBStallCycles++
					break
				}
				r := in.next()
				if r == nil {
					break
				}
				if feEnabled {
					// The instruction must be fetched before it can
					// dispatch. An L1I miss stalls the front end until
					// the block arrives; the record retries then (the
					// fetch unit is already on its block, so the retry
					// completes immediately).
					if fetchDone := c.h.FetchAccess(cycle, r.PC); fetchDone > cycle {
						in.unread()
						if fetchDone > c.fetchStallUntil {
							c.fetchStallUntil = fetchDone
						}
						c.res.FetchStallCycles += fetchDone - cycle
						break
					}
				}
				if r.Op.IsMem() && c.lsqCount >= c.cfg.LSQEntries {
					in.unread()
					c.res.LSQStallCycles++
					lsqBlocked = true
					break
				}
				seq := c.robTail
				c.robTail++
				e := c.slot(seq)
				// Field by field, not a literal copy: see feed.next.
				e.pc, e.addr, e.readyAt = r.PC, r.Addr, notReady
				e.op, e.dep, e.isStore = r.Op, r.Dep, false
				switch r.Op {
				case isa.OpALU:
					e.readyAt = cycle + 1
					c.res.ALUOps++
				case isa.OpBranch:
					e.readyAt = cycle + 1
					c.res.Branches++
					correct := c.branch.Resolve(r.PC, r.Taken, r.Addr)
					if !correct {
						// Fetch redirects after the penalty; dispatch of
						// younger instructions stops this cycle.
						c.fetchStallUntil = cycle + uint64(c.cfg.BranchPenalty)
						c.res.BranchPredictions = c.branch.Predictions
						c.res.BranchMispredictions = c.branch.Mispredictions
						i = c.cfg.IssueWidth // stop dispatching
					}
				case isa.OpLoad:
					c.lsqCount++
					c.waiting = append(c.waiting, seq)
					c.res.Loads++
				case isa.OpStore:
					c.lsqCount++
					c.waiting = append(c.waiting, seq)
					e.isStore = true
					c.res.Stores++
				case isa.OpPrefetch:
					c.lsqCount++
					c.res.SoftPF++
					// Software prefetches are non-blocking: they complete
					// immediately and hand their address to the filter path.
					c.h.SoftwarePrefetch(cycle, r.PC, r.Addr)
					e.readyAt = cycle + 1
				}
			}
		}

		// --- Issue memory ops to the L1, oldest first, bounded by ports ---
		used, stalled, depWake := 0, false, notReady
		if len(c.waiting) > 0 {
			used, stalled, depWake = c.issue(cycle, ports, l1lat)
		}

		// --- Leftover ports go to the prefetch queue ---
		if q := c.h.QueuedPrefetches(); q > 0 && used < ports {
			c.h.IssuePrefetches(cycle, ports-used)
		} else if q > 0 {
			c.res.PrefetchPortWaits++
		}

		// --- The I-side queue issues strictly last: after the cycle's
		// demand accesses and D-side prefetches, so instruction
		// prefetches can never claim the shared L2 port ahead of the
		// data path (see hier.IssueIPrefetches) ---
		if feEnabled {
			c.h.IssueIPrefetches(cycle, 1)
		}

		// --- Jump over idle cycles: with every memory op left to issue
		// held by its Dep predecessor (none waits on a port or an MSHR)
		// and no warmup reset due, a blocked dispatch leaves every stage
		// idle until idleUntil's cycle ---
		if !stalled && (warm || c.res.Instructions < uint64(warmup)) && !done() {
			cycle = c.idleUntil(cycle, depWake, lsqBlocked) - 1
		}
	}

	c.res.Cycles = cycle - cycleBase
	c.res.BranchPredictions = c.branch.Predictions
	c.res.BranchMispredictions = c.branch.Mispredictions
	c.dumpMetrics()
	return c.res
}
