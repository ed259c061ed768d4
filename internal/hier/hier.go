// Package hier composes the memory hierarchy of the simulated machine:
// L1 data cache → unified L2 → bus → main memory, plus the prefetch
// machinery (hardware prefetchers, pollution filter, prefetch queue, and
// the optional dedicated prefetch buffer of §5.5), and the optional
// instruction-side front end whose L1I shares the L2.
//
// The hierarchy owns the good/bad prefetch classification of §3: every
// prefetched line carries PIB/RIB metadata; a demand reference sets RIB;
// eviction (or end-of-run residency) classifies the prefetch and trains
// the pollution filter. The L1D and the L1I each run that mechanism
// through one side (see side).
//
// Timing model. The hierarchy is driven by the CPU's cycle clock. Demand
// accesses compute their completion cycle through the levels (L1 hit
// latency, + L2 latency on an L1 miss, + memory latency and bus transfer
// on an L2 miss). Prefetches accepted by the filter wait in the prefetch
// queue, consume leftover L1 ports to issue, and complete asynchronously:
// a prefetch fill is installed only when its completion cycle arrives, so
// a prefetch that issues too late — e.g. because port contention kept it
// queued — arrives after the demand access it should have covered and is
// classified bad, reproducing the §5.4 "procrastination turns good
// prefetches into bad" effect.
package hier

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/deadblock"
	"repro/internal/frontend"
	"repro/internal/memdram"
	"repro/internal/metrics"
	"repro/internal/pbuffer"
	"repro/internal/prefetch"
	"repro/internal/stats"
	"repro/internal/taxonomy"
	"repro/internal/trace"
	"repro/internal/victim"
	"repro/internal/xrand"
)

// inflight is a prefetch fill in transit from L2/memory toward the L1
// (or, when iside is set, toward the L1I).
type inflight struct {
	done      uint64 // cycle the fill arrives at the L1
	lineAddr  uint64
	triggerPC uint64
	software  bool
	iside     bool // instruction-prefetch fill headed for the L1I
	source    core.Source
}

// inflightHeap is a hand-rolled min-heap of fills ordered by completion
// cycle. container/heap would box every Push/Pop operand into an `any`,
// which profiled as ~40% of all allocations in a simulation; the typed
// sift routines below allocate nothing.
type inflightHeap []inflight

// push inserts a fill, sifting up to restore heap order.
//
//pflint:hotpath
func (h *inflightHeap) push(f inflight) {
	// The backing array reaches steady-state capacity within the first few
	// thousand cycles; after that this append never allocates.
	//pflint:allow hotpath/append amortized growth of the heap's own backing array
	*h = append(*h, f)
	s := *h
	// Sift up.
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent].done <= s[i].done {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

// pop removes and returns the earliest-completing fill.
//
//pflint:hotpath
func (h *inflightHeap) pop() inflight {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = inflight{}
	s = s[:n]
	*h = s
	// Sift down.
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s[l].done < s[small].done {
			small = l
		}
		if r < n && s[r].done < s[small].done {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

// side is one L1 and the prefetch machinery in front of it: the queue of
// filtered candidates, the fills in flight toward it, and the good/bad
// accounting of what they bring in. The hierarchy builds one for the L1D
// and one for the L1I, and both run the paper's mechanism — squash,
// filter before enqueue, classify and train at eviction — through the
// same code. The D-only structures (buffer, victim cache, dead-block
// predictor, taxonomy) stay nil on the I side; the code branches on nil,
// never on which side it is.
type side struct {
	h     *Hierarchy
	iside bool // tags this side's fills on the shared heap

	L1    *cache.Cache
	Queue *prefetch.Queue
	lat   uint64 // L1 hit latency in cycles

	// inflight holds the live fill per line. An entry leaves it only when
	// its fill completes or a demand miss merges with it, so a fill popped
	// off the heap that is no longer the live entry was merged.
	inflight map[uint64]inflight

	pf     *stats.Prefetches // the hierarchy's Pf or IPf
	merged *uint64           // the hierarchy's Merged or MergedI
	m      sideMetrics

	// Buffer is the dedicated prefetch buffer (nil unless cfg.Buffer.Enable).
	Buffer *pbuffer.Buffer
	// Victim is the optional victim cache behind the L1 (nil unless
	// cfg.VictimEntries > 0).
	Victim *victim.Cache
	// Dead, when non-nil, enables the Lai et al. dead-block baseline: the
	// predictor observes the L1 access/eviction stream and gates each
	// prefetch on the predicted liveness of the line it would displace.
	Dead *deadblock.Predictor
	// Tax, when non-nil, records the full Srinivasan prefetch taxonomy
	// (reference [17]) alongside the paper's 2-way classification. Pure
	// instrumentation: it never affects timing or filtering.
	Tax *taxonomy.Tracker
}

// Hierarchy is the composed memory system.
type Hierarchy struct {
	cfg config.Config

	// side is the L1D's side; its exported fields (L1, Queue, Buffer,
	// Victim, Dead, Tax) read as the hierarchy's own. i is the L1I's side,
	// whose L1 and queue stay nil unless cfg.Frontend is set; the L1I sits
	// beside the L1D and shares the single-ported L2.
	side
	i side

	L2  *cache.Cache
	Bus *bus.Bus
	Mem *memdram.Memory

	Filter core.Filter
	HW     prefetch.Prefetcher // composite hardware prefetchers (may be empty)
	// IHW is the instruction-prefetch backend from the internal/frontend
	// registry (nil unless cfg.Frontend selects one).
	IHW   frontend.Prefetcher
	fetch frontend.FetchUnit

	// l2busyUntil serializes the single-ported L2 (pipelined occupancy).
	l2busyUntil uint64

	// fills holds both sides' fills in transit, tagged by inflight.iside.
	fills inflightHeap

	// Classification and traffic counters (read via Snapshot).
	Pf      stats.Prefetches
	Traffic stats.Traffic
	// BySource counts issued prefetches per generator name. Finish builds
	// it from bySource, which the issue path counts into.
	BySource map[string]uint64
	bySource [1 << 8]uint64 // indexed by core.Source

	// LatePrefetches counts fills that arrived after a demand access had
	// already brought the line in (classified bad).
	LatePrefetches uint64
	// Merged counts demand misses that merged with an in-flight prefetch
	// (MSHR behaviour); the prefetch classifies good.
	Merged uint64

	// I-side counters: IPf classifies instruction prefetches at L1I
	// eviction time exactly as Pf does for the D-side; FetchBlocks and
	// FetchMisses count the fetch-block stream presented to the L1I;
	// MergedI counts fetch misses that merged with an in-flight
	// instruction prefetch.
	IPf         stats.Prefetches
	FetchBlocks uint64
	FetchMisses uint64
	MergedI     uint64

	// DeadGated counts prefetches the dead-block gate dropped.
	DeadGated uint64

	// Trace, when non-nil, receives a cycle-stamped event for every
	// prefetch lifecycle transition, demand miss, and (via Bus.Trace) bus
	// grant. Attached by AttachObservability; nil by default so the
	// un-instrumented hot path pays one predictable branch per site.
	Trace *trace.Tracer
	// m holds live demand metric handles; all nil (no-op) unless attached.
	m hierMetrics
	// now is the cycle stamp for events raised from shared helpers
	// (eviction classification inside fills); maintained by the
	// entry points that carry a cycle argument.
	now uint64
	// emitFn is the single reusable candidate sink handed to the
	// prefetchers; it reads the cycle from h.now. Allocating a fresh
	// closure per demand access was ~30% of all simulation allocations.
	emitFn func(prefetch.Candidate)
	// iEmitFn is its I-side twin, handed to the instruction prefetcher.
	iEmitFn func(frontend.Candidate)
}

// hierMetrics are the hierarchy's live demand counters, and sideMetrics
// each side's prefetch counters. Each handle is nil until
// AttachObservability registers it, and every update is nil-safe, so the
// disabled path costs one branch per site. The side counters track its
// stats.Prefetches fields exactly: after Finish, "sim.pf.good" equals
// Run.Prefetches.Good and "sim.ipf.good" Run.Frontend.Prefetches.Good,
// and so on — that equality is the contract the observability tests pin.
type hierMetrics struct {
	demandAccesses, demandMisses *metrics.Counter
}

type sideMetrics struct {
	issued, good, bad, filtered, squashed, overflow *metrics.Counter
	fills, refs, late, merged                       *metrics.Counter
}

// newSideMetrics registers a side's counters under prefix.
func newSideMetrics(reg *metrics.Registry, prefix string) sideMetrics {
	c := func(name string) *metrics.Counter { return reg.Counter(prefix + "." + name) }
	return sideMetrics{
		issued: c("issued"), good: c("good"), bad: c("bad"),
		filtered: c("filtered"), squashed: c("squashed"), overflow: c("overflow"),
		fills: c("fills"), refs: c("refs"), late: c("late"), merged: c("merged"),
	}
}

// reset zeroes every attached counter (warmup boundary).
func (m *sideMetrics) reset() {
	for _, c := range []*metrics.Counter{
		m.issued, m.good, m.bad, m.filtered, m.squashed, m.overflow,
		m.fills, m.refs, m.late, m.merged,
	} {
		c.Set(0)
	}
}

// AttachObservability wires a tracer and/or metrics registry into the
// hierarchy (and its bus). Either may be nil. Must be called before the
// run starts; the attached instruments are purely observational and
// never alter simulation semantics. The I side's sim.ipf.* counters are
// registered only when the front end is modelled.
func (h *Hierarchy) AttachObservability(tr *trace.Tracer, reg *metrics.Registry) {
	h.Trace = tr
	h.Bus.Trace = tr
	h.m, h.side.m, h.i.m = hierMetrics{}, sideMetrics{}, sideMetrics{}
	if reg == nil {
		return
	}
	h.m = hierMetrics{
		demandAccesses: reg.Counter("sim.demand.accesses"),
		demandMisses:   reg.Counter("sim.demand.misses"),
	}
	h.side.m = newSideMetrics(reg, "sim.pf")
	if h.FrontendEnabled() {
		h.i.m = newSideMetrics(reg, "sim.ipf")
	}
}

// l2Occupancy is the pipelined issue interval of the single L2 port, in
// cycles. The L2 has a 15-cycle latency but accepts a new access every
// few cycles, as real pipelined SRAM arrays do.
const l2Occupancy = 2

// New builds the hierarchy from a validated config. The filter must be
// non-nil (use core.NewNull for no filtering).
func New(cfg config.Config, filter core.Filter, rng *xrand.Rand) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if filter == nil {
		return nil, fmt.Errorf("hier: filter must not be nil")
	}
	if rng == nil {
		rng = xrand.New(cfg.Seed)
	}
	l1, err := cache.New(cfg.L1, rng.Fork())
	if err != nil {
		return nil, fmt.Errorf("hier: l1: %w", err)
	}
	l2, err := cache.New(cfg.L2, rng.Fork())
	if err != nil {
		return nil, fmt.Errorf("hier: l2: %w", err)
	}
	b, err := bus.New(cfg.BusBytesPerCyc)
	if err != nil {
		return nil, err
	}
	mem, err := memdram.New(cfg.MemoryLatency, 4)
	if err != nil {
		return nil, err
	}
	q, err := prefetch.NewQueue(cfg.Prefetch.QueueEntries)
	if err != nil {
		return nil, err
	}
	h := &Hierarchy{
		cfg:    cfg,
		L2:     l2,
		Bus:    b,
		Mem:    mem,
		Filter: filter,
	}
	h.side = side{h: h, L1: l1, Queue: q, lat: uint64(cfg.L1.LatencyCycles),
		inflight: make(map[uint64]inflight), pf: &h.Pf, merged: &h.Merged}
	h.i = side{h: h, iside: true, pf: &h.IPf, merged: &h.MergedI}
	if cfg.Buffer.Enable {
		pb, err := pbuffer.New(cfg.Buffer.Entries)
		if err != nil {
			return nil, err
		}
		h.Buffer = pb
	}
	if cfg.VictimEntries > 0 {
		vc, err := victim.New(cfg.VictimEntries)
		if err != nil {
			return nil, err
		}
		h.Victim = vc
	}
	if cfg.Filter.Kind == config.FilterDeadBlock {
		db, err := deadblock.New(cfg.Filter.TableEntries)
		if err != nil {
			return nil, err
		}
		h.Dead = db
	}
	var parts []prefetch.Prefetcher
	env := prefetch.Env{L2: l2}
	for _, kind := range cfg.Prefetch.Enabled() {
		p, err := prefetch.New(kind, cfg.Prefetch, env)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	h.HW = prefetch.NewComposite(parts...)
	h.emitFn = func(c prefetch.Candidate) { h.side.submit(h.now, c) }
	if cfg.Frontend != nil {
		l1i, err := cache.New(cfg.Frontend.L1I, rng.Fork())
		if err != nil {
			return nil, fmt.Errorf("hier: l1i: %w", err)
		}
		iq, err := prefetch.NewQueue(cfg.Frontend.QueueEntries)
		if err != nil {
			return nil, err
		}
		h.i.L1, h.i.Queue, h.i.lat = l1i, iq, uint64(cfg.Frontend.L1I.LatencyCycles)
		h.i.inflight = make(map[uint64]inflight)
		if kind := cfg.Frontend.IPrefetch.Canonical(); kind != config.IPrefetchNone {
			ip, err := frontend.New(kind, *cfg.Frontend)
			if err != nil {
				return nil, err
			}
			h.IHW = ip
		}
		h.fetch = frontend.NewFetchUnit(cfg.Frontend.L1I.LineBytes)
		h.iEmitFn = func(c frontend.Candidate) {
			h.i.submit(h.now, prefetch.Candidate{LineAddr: c.Block, TriggerPC: c.TriggerPC, Source: c.Source})
		}
	}
	return h, nil
}

// Release hands the caches' line and tag arrays back for the next
// machine's. The hierarchy must not be used afterwards.
func (h *Hierarchy) Release() {
	h.L1.Release()
	h.L2.Release()
	if h.i.L1 != nil {
		h.i.L1.Release()
	}
}

// Config returns the machine configuration.
func (h *Hierarchy) Config() config.Config { return h.cfg }

// LineAddr converts a byte address to a line address.
func (h *Hierarchy) LineAddr(addr uint64) uint64 { return h.L1.LineAddr(addr) }

// FrontendEnabled reports whether the I-side front end is modelled.
func (h *Hierarchy) FrontendEnabled() bool { return h.i.L1 != nil }

// classify counts one prefetch classified good (referenced) or bad.
func (s *side) classify(good bool) {
	if good {
		s.pf.Good++
		s.m.good.Inc()
	} else {
		s.pf.Bad++
		s.m.bad.Inc()
	}
}

// squash records one duplicate-squashed prefetch.
func (s *side) squash() {
	s.pf.Squashed++
	s.m.squashed.Inc()
}

// overflow records one candidate lost to a full (or, at the end of the
// run, undrained) queue.
func (s *side) overflow() {
	s.pf.Overflow++
	s.m.overflow.Inc()
}

// retire classifies a prefetched line leaving the L1 or the buffer and
// trains the filter with its verdict.
func (s *side) retire(lineAddr, triggerPC uint64, referenced bool, src core.Source) {
	h := s.h
	s.classify(referenced)
	if h.Trace != nil {
		h.Trace.Emit(trace.Event{Cycle: h.now, Kind: trace.KindPrefetchEvict,
			LineAddr: lineAddr, PC: triggerPC, Good: referenced})
	}
	h.Filter.Train(core.Feedback{
		LineAddr:   lineAddr,
		TriggerPC:  triggerPC,
		Referenced: referenced,
		Source:     src,
	})
}

// evicted handles a line leaving the L1: if it was a prefetch, classify
// it and train the filter.
func (s *side) evicted(line cache.Line) {
	if s.Dead != nil {
		s.Dead.OnEvict(line)
	}
	if !line.PIB {
		return
	}
	s.retire(line.Tag, line.TriggerPC, line.RIB, line.PFSource)
	if s.Tax != nil {
		s.Tax.OnEvict(line.Tag)
	}
}

// fill installs a line into the L1 and processes the eviction feedback.
// The returned pointer addresses the installed line for metadata setup.
func (s *side) fill(lineAddr uint64, prefetchReq bool) *cache.Line {
	installed, evicted, hadEvict := s.L1.Insert(lineAddr)
	if hadEvict {
		s.evicted(evicted)
		if s.Victim != nil {
			// The victim cache captures the eviction; its own victim (if
			// dirty) is what finally writes back.
			if ve, vEvict := s.Victim.Insert(evicted.Tag, evicted.Dirty); vEvict && ve.Dirty {
				s.h.writebackL2(ve.LineAddr)
			}
		} else if evicted.Dirty {
			s.h.writebackL2(evicted.Tag)
		}
	}
	if prefetchReq {
		s.L1.Stats.PrefetchFills++
		if s.Tax != nil {
			s.Tax.OnPrefetchFill(lineAddr, evicted.Tag, hadEvict)
		}
	} else {
		s.L1.Stats.DemandFills++
	}
	return installed
}

// install fills a prefetch into the L1 as a not-yet-referenced prefetched
// line carrying its provenance.
func (s *side) install(f inflight) *cache.Line {
	line := s.fill(f.lineAddr, true)
	line.PIB = true
	line.TriggerPC = f.triggerPC
	line.SoftPF = f.software
	line.PFSource = f.source
	return line
}

// reference records a demand hit on line at cycle now. The first
// reference to a prefetched line sets its RIB; reference reports whether
// this hit was that first reference.
func (s *side) reference(line *cache.Line, now, pc uint64) bool {
	if !line.PIB || line.RIB {
		return false
	}
	line.RIB = true
	s.m.refs.Inc()
	if s.h.Trace != nil {
		s.h.Trace.Emit(trace.Event{Cycle: now, Kind: trace.KindPrefetchRef,
			LineAddr: line.Tag, PC: pc})
	}
	return true
}

// merge serves a demand miss at cycle now on a line with a prefetch in
// flight (MSHR merge): the miss waits for the prefetch's fill instead of
// launching its own request. The prefetch covered (part of) the miss
// latency, so the line is installed now as a referenced prefetch — it
// will classify good at eviction and train the filter positively. merge
// returns the cycle the data is available, or false when no prefetch for
// the line is in flight.
func (s *side) merge(now, lineAddr uint64, isStore bool) (done uint64, ok bool) {
	f, ok := s.inflight[lineAddr]
	if !ok {
		return 0, false
	}
	delete(s.inflight, lineAddr)
	*s.merged++
	s.m.merged.Inc()
	if s.h.Trace != nil {
		s.h.Trace.Emit(trace.Event{Cycle: now, Kind: trace.KindPrefetchMerge,
			LineAddr: lineAddr, PC: f.triggerPC, Source: f.source.String()})
	}
	line := s.install(f)
	if s.Tax != nil {
		s.Tax.OnDemandRef(lineAddr) // the merging demand is the reference
	}
	line.RIB = true
	if isStore {
		line.Dirty = true
	}
	return max(f.done, now+s.lat), true
}

// covered reports whether a prefetch of lineAddr would be redundant: the
// line is resident or already on its way.
func (s *side) covered(lineAddr uint64) bool {
	if s.L1.Contains(lineAddr) || (s.Buffer != nil && s.Buffer.Contains(lineAddr)) {
		return true
	}
	_, busy := s.inflight[lineAddr]
	return busy
}

// submit runs one candidate through duplicate squashing and the pollution
// filter, then enqueues it.
//
//pflint:hotpath
func (s *side) submit(now uint64, c prefetch.Candidate) {
	h := s.h
	// Squash duplicates: already resident, already in flight, or already
	// queued. No penalty (paper §5.1).
	if s.covered(c.LineAddr) || s.Queue.Contains(c.LineAddr) {
		s.squash()
		return
	}
	if !h.Filter.Allow(core.Request{LineAddr: c.LineAddr, TriggerPC: c.TriggerPC, Software: c.Software, Source: c.Source}) {
		s.filtered(now, c)
		return
	}
	if s.Dead != nil && !s.Dead.AllowPrefetch(s.L1, c.LineAddr) {
		h.DeadGated++
		s.filtered(now, c)
		return
	}
	if !s.Queue.Enqueue(c, now) {
		s.overflow()
	}
}

// filtered records one candidate dropped before the queue (pollution
// filter or dead-block gate).
func (s *side) filtered(now uint64, c prefetch.Candidate) {
	s.pf.Filtered++
	s.m.filtered.Inc()
	if s.h.Trace != nil {
		s.h.Trace.Emit(trace.Event{Cycle: now, Kind: trace.KindPrefetchFilter,
			LineAddr: c.LineAddr, PC: c.TriggerPC, Source: c.Source.String()})
	}
}

// issueNext starts the fill of the oldest queued prefetch at cycle now,
// first squashing those that became redundant while queued. It reports
// false when the queue runs dry.
func (s *side) issueNext(now uint64) bool {
	h := s.h
	for {
		qc, ok := s.Queue.Dequeue()
		if !ok {
			return false
		}
		if s.covered(qc.LineAddr) {
			s.squash()
			continue
		}
		// The prefetch walks the lower hierarchy like a demand miss,
		// tagged as prefetch traffic.
		ready, _ := h.l2Access(now+s.lat, qc.LineAddr, true)
		s.pf.Issued++
		s.m.issued.Inc()
		if h.Trace != nil {
			h.Trace.Emit(trace.Event{Cycle: now, Kind: trace.KindPrefetchIssue,
				LineAddr: qc.LineAddr, PC: qc.TriggerPC, Source: qc.Source.String()})
		}
		h.bySource[qc.Source]++
		f := inflight{
			done:      ready,
			lineAddr:  qc.LineAddr,
			triggerPC: qc.TriggerPC,
			software:  qc.Software,
			iside:     s.iside,
			source:    qc.Source,
		}
		h.fills.push(f)
		s.inflight[qc.LineAddr] = f
		return true
	}
}

// complete lands one fill popped off the heap. A fill that is no longer
// the live entry for its line was merged by a demand miss, which already
// installed the line. A fill whose line a demand access brought in
// meanwhile is late: it is dropped and classified bad (the prefetch did
// not cover the access).
//
//pflint:hotpath
func (s *side) complete(f inflight) {
	if cur, live := s.inflight[f.lineAddr]; !live || cur != f {
		return
	}
	delete(s.inflight, f.lineAddr)
	h := s.h
	// Events from this fill are stamped at its arrival cycle, which is
	// exact even during the end-of-run drain (Tick(^uint64(0))).
	h.now = f.done
	if s.L1.Contains(f.lineAddr) || (s.Buffer != nil && s.Buffer.Contains(f.lineAddr)) {
		h.LatePrefetches++
		s.m.late.Inc()
		s.classify(false)
		if h.Trace != nil {
			h.Trace.Emit(trace.Event{Cycle: f.done, Kind: trace.KindPrefetchLate,
				LineAddr: f.lineAddr, PC: f.triggerPC, Source: f.source.String()})
		}
		h.Filter.Train(core.Feedback{
			LineAddr:   f.lineAddr,
			TriggerPC:  f.triggerPC,
			Referenced: false,
			Source:     f.source,
		})
		return
	}
	if h.Trace != nil {
		h.Trace.Emit(trace.Event{Cycle: f.done, Kind: trace.KindPrefetchFill,
			LineAddr: f.lineAddr, PC: f.triggerPC, Source: f.source.String()})
	}
	s.m.fills.Inc()
	if s.Buffer != nil {
		if e, hadEvict := s.Buffer.Insert(f.lineAddr, f.triggerPC, f.software, f.source); hadEvict {
			s.retire(e.LineAddr, e.TriggerPC, e.Referenced, e.Source)
		}
		return
	}
	s.install(f)
}

// reset zeroes the side's statistics, leaving its state warm.
func (s *side) reset() {
	*s.pf = stats.Prefetches{}
	*s.merged = 0
	s.m.reset()
	if s.L1 == nil { // the L1I of a machine without a front end
		return
	}
	s.L1.Stats = cache.Stats{}
	s.Queue.Enqueued, s.Queue.Squashed, s.Queue.Overflows, s.Queue.Dequeued = 0, 0, 0, 0
	if s.Dead != nil {
		s.Dead.ResetStats()
	}
	if s.Tax != nil {
		s.Tax.ResetCounts()
	}
}

// finish classifies the side's state left at the end of the run:
// queued-but-unissued prefetches count as overflow casualties, resident
// prefetched lines classify by RIB, and resident buffer entries by
// Referenced.
func (s *side) finish() {
	for range s.Queue.Drain() {
		s.overflow()
	}
	resident := func(referenced bool) {
		s.classify(referenced)
		if referenced {
			s.pf.ResidentGood++
		} else {
			s.pf.ResidentBad++
		}
	}
	s.L1.ForEach(func(line *cache.Line) {
		if line.PIB {
			resident(line.RIB)
		}
	})
	if s.Buffer != nil {
		for _, e := range s.Buffer.Drain() {
			resident(e.Referenced)
		}
	}
	if s.Tax != nil {
		s.Tax.Finish()
	}
}

// l2Access models one access reaching the L2 at cycle `at`, returning the
// cycle data is available to fill the L1. prefetch tags traffic.
func (h *Hierarchy) l2Access(at uint64, lineAddr uint64, prefetchReq bool) (ready uint64, l2hit bool) {
	// Single L2 port: serialize pipelined access slots.
	start := at
	if h.l2busyUntil > start {
		start = h.l2busyUntil
	}
	h.l2busyUntil = start + l2Occupancy

	h.Traffic.L2Accesses++
	if prefetchReq {
		h.Traffic.PrefetchL2++
	} else {
		h.L2.Stats.DemandAccesses++
	}

	if _, hit := h.L2.Lookup(lineAddr); hit {
		if !prefetchReq {
			h.L2.Stats.DemandHits++
		}
		return start + uint64(h.cfg.L2.LatencyCycles), true
	}
	if !prefetchReq {
		h.L2.Stats.DemandMisses++
	}
	// Miss: main memory + bus transfer back.
	h.Traffic.MemAccesses++
	if prefetchReq {
		h.Traffic.PrefetchMem++
	}
	memReady := h.Mem.Request(start+uint64(h.cfg.L2.LatencyCycles), prefetchReq)
	arrive := h.Bus.Request(memReady, h.cfg.L2.LineBytes, prefetchReq)

	// Fill the L2. An L2 eviction may write back a dirty line over the bus.
	_, evicted, hadEvict := h.L2.Insert(lineAddr)
	if prefetchReq {
		h.L2.Stats.PrefetchFills++
	} else {
		h.L2.Stats.DemandFills++
	}
	if hadEvict && evicted.Dirty {
		h.Bus.Request(arrive, h.cfg.L2.LineBytes, false)
	}
	return arrive, false
}

// writebackL2 pushes a dirty line into the L2 off the critical path:
// pure occupancy on the L2 port, plus a bus transfer if the L2 must
// evict its own dirty victim to memory.
func (h *Hierarchy) writebackL2(lineAddr uint64) {
	h.l2busyUntil += l2Occupancy
	wb, _, wbEvict := h.L2.Insert(lineAddr)
	wb.Dirty = true
	if wbEvict {
		h.Bus.Request(h.l2busyUntil, h.cfg.L2.LineBytes, false)
	}
}

// DemandAccess runs one load/store through the hierarchy at cycle now and
// returns the cycle its data is available. The caller has already charged
// an L1 port for this access.
func (h *Hierarchy) DemandAccess(now uint64, pc, addr uint64, isStore bool) (done uint64) {
	d := &h.side
	lineAddr := d.L1.LineAddr(addr)
	h.now = now
	h.Traffic.DemandAccesses++
	d.L1.Stats.DemandAccesses++
	h.m.demandAccesses.Inc()
	if d.Tax != nil {
		d.Tax.OnDemandRef(lineAddr)
	}

	if line, hit := d.L1.Lookup(lineAddr); hit {
		d.L1.Stats.DemandHits++
		if d.Dead != nil {
			d.Dead.OnAccess(line, pc)
		}
		// The NSP tag is "consumed" by the first demand reference: a hit
		// on a not-yet-referenced prefetched line triggers the next-line
		// prefetch; later hits do not re-trigger.
		tagged := d.reference(line, now, pc)
		if isStore {
			line.Dirty = true
		}
		h.observe(now, pc, lineAddr, isStore, true, tagged, false)
		return now + d.lat
	}
	d.L1.Stats.DemandMisses++
	h.m.demandMisses.Inc()
	if h.Trace != nil {
		h.Trace.Emit(trace.Event{Cycle: now, Kind: trace.KindDemandMiss,
			LineAddr: lineAddr, PC: pc})
	}

	if done, ok := d.merge(now, lineAddr, isStore); ok {
		h.observe(now, pc, lineAddr, isStore, true, false, false) // the lower levels never see this access
		return done
	}

	// Probe the dedicated prefetch buffer in parallel with the L1.
	if d.Buffer != nil {
		if entry, hit := d.Buffer.Probe(lineAddr); hit {
			// Promotion: the prefetch was good. Classify and train now;
			// the line enters the L1 as an ordinary (PIB=0) line.
			d.classify(true)
			d.m.refs.Inc()
			if h.Trace != nil {
				h.Trace.Emit(trace.Event{Cycle: now, Kind: trace.KindPrefetchRef,
					LineAddr: lineAddr, PC: pc})
			}
			h.Filter.Train(core.Feedback{
				LineAddr:   entry.LineAddr,
				TriggerPC:  entry.TriggerPC,
				Referenced: true,
				Source:     entry.Source,
			})
			installed := d.fill(lineAddr, false)
			if isStore {
				installed.Dirty = true
			}
			h.observe(now, pc, lineAddr, isStore, true, false, false) // to the prefetchers: no L2 access
			return now + d.lat
		}
	}

	// Probe the victim cache: a hit swaps the line back into the L1 in
	// one extra cycle, never touching the L2.
	if d.Victim != nil {
		if vEntry, hit := d.Victim.Probe(lineAddr); hit {
			installed := d.fill(lineAddr, false)
			installed.Dirty = vEntry.Dirty || isStore
			if d.Dead != nil {
				d.Dead.OnFill(installed, pc)
			}
			h.observe(now, pc, lineAddr, isStore, true, false, false) // the lower levels never see this access
			return now + d.lat + 1
		}
	}

	ready, l2hit := h.l2Access(now+d.lat, lineAddr, false)
	installed := d.fill(lineAddr, false)
	if d.Dead != nil {
		d.Dead.OnFill(installed, pc)
	}
	if isStore {
		installed.Dirty = true
	}
	h.observe(now, pc, lineAddr, isStore, false, false, l2hit)
	return ready
}

// FetchAccess runs one instruction fetch through the front end at cycle
// now and returns the cycle the block is available. Same-block fetches
// are absorbed by the fetch unit and complete immediately; only block
// transitions touch the L1I. On a miss the front end stalls: the caller
// must not dispatch past the returned cycle.
func (h *Hierarchy) FetchAccess(now uint64, pc uint64) (done uint64) {
	block, newBlock, redirect := h.fetch.Step(pc)
	if !newBlock {
		return now
	}
	s := &h.i
	h.now = now
	h.FetchBlocks++
	s.L1.Stats.DemandAccesses++
	ev := frontend.Event{Block: block, PC: pc, Redirect: redirect}

	if line, hit := s.L1.Lookup(block); hit {
		s.L1.Stats.DemandHits++
		s.reference(line, now, pc)
		h.observeI(now, ev)
		return now
	}
	s.L1.Stats.DemandMisses++
	h.FetchMisses++
	ev.Miss = true

	if done, ok := s.merge(now, block, false); ok {
		h.observeI(now, ev)
		return done
	}

	// The fetch miss walks the shared L2 as a demand access — it is on
	// the critical path of the front end.
	ready, _ := h.l2Access(now+s.lat, block, false)
	s.fill(block, false)
	h.observeI(now, ev)
	return ready
}

// observeI feeds a fetch-block event to the instruction prefetcher. The
// candidate sink is the pre-built h.iEmitFn, stamping candidates with
// h.now.
func (h *Hierarchy) observeI(now uint64, ev frontend.Event) {
	if h.IHW == nil {
		return
	}
	h.now = now
	h.IHW.Observe(ev, h.iEmitFn)
}

// SoftwarePrefetch routes a software prefetch instruction (identified in
// the LSQ) through the pollution filter into the prefetch queue. It does
// not consume an L1 port; the eventual fill does, via IssuePrefetches.
func (h *Hierarchy) SoftwarePrefetch(now uint64, pc, addr uint64) {
	if !h.cfg.Prefetch.EnableSoftware {
		return
	}
	h.side.submit(now, prefetch.Candidate{
		LineAddr:  h.L1.LineAddr(addr),
		TriggerPC: pc,
		Software:  true,
		Source:    core.SrcSoftware,
	})
}

// observe feeds the demand access to the hardware prefetchers and submits
// whatever they generate. The candidate sink is the pre-built h.emitFn,
// stamping candidates with h.now (maintained by every entry point that
// carries a cycle argument, including this one).
// Fields, not an Event: a >4-field struct written flag by flag and copied stalls store forwarding.
//
//pflint:hotpath
func (h *Hierarchy) observe(now, pc, lineAddr uint64, isStore, l1Hit, tagged, l2Hit bool) {
	h.now = now
	h.HW.Observe(prefetch.Event{PC: pc, LineAddr: lineAddr, Cycle: now, IsStore: isStore,
		L1Hit: l1Hit, L1HitTagged: tagged, L2Hit: l2Hit}, h.emitFn)
}

// IssuePrefetches lets up to ports queued prefetches start their fills at
// cycle now, returning how many L1 ports were consumed. Prefetches found
// to be redundant at issue time are squashed without consuming a port.
func (h *Hierarchy) IssuePrefetches(now uint64, ports int) (used int) {
	h.now = now
	// Most cycles find the queue empty; checking Len here keeps them from
	// paying a call to issueNext, which is too large to inline.
	for used < ports && h.Queue.Len() > 0 && h.side.issueNext(now) {
		used++
		h.Traffic.PrefetchAccesses++ // the prefetch occupied an L1 port
	}
	return used
}

// IssueIPrefetches lets up to max queued instruction prefetches start
// their fills at cycle now. It must be called after the cycle's demand
// accesses and D-side prefetch issue, and it only takes the shared L2
// port when the port is otherwise idle: an instruction prefetch never
// claims a slot ahead of — or queues back-to-back against — the data
// path, so I-side fills cannot starve D-side demand misses. The
// contention tests pin this arbitration order.
func (h *Hierarchy) IssueIPrefetches(now uint64, max int) (used int) {
	if !h.FrontendEnabled() {
		return 0
	}
	h.now = now
	for used < max && h.l2busyUntil <= now+h.i.lat && h.i.Queue.Len() > 0 && h.i.issueNext(now) {
		used++
	}
	return used
}

// Tick completes prefetch fills whose data has arrived by cycle now.
func (h *Hierarchy) Tick(now uint64) {
	for len(h.fills) > 0 && h.fills[0].done <= now {
		f := h.fills.pop()
		s := &h.side
		if f.iside {
			s = &h.i
		}
		s.complete(f)
	}
}

// NextEvent returns the earliest cycle after now at which the hierarchy
// can change state without a new demand or fetch access: the next fill
// arrival, the next cycle when the D-side queue holds work, or the cycle
// the shared L2 port opens to a queued instruction prefetch (see
// IssueIPrefetches). Everything else in the hierarchy is driven by
// timestamps carried in those accesses, so a core with no access to make
// may jump straight to this cycle.
//
//pflint:hotpath
func (h *Hierarchy) NextEvent(now uint64) uint64 {
	if h.Queue.Len() > 0 {
		return now + 1
	}
	next := ^uint64(0)
	if len(h.fills) > 0 {
		next = h.fills[0].done
	}
	if h.i.Queue != nil && h.i.Queue.Len() > 0 {
		// IssueIPrefetches admits one once l2busyUntil <= cycle + lat.
		next = min(next, max(h.l2busyUntil, h.i.lat)-h.i.lat)
	}
	return max(next, now+1)
}

// ResetStats zeroes every statistic accumulated so far while leaving all
// architectural state — cache contents, shadow directories, the filter's
// history table, queued and in-flight prefetches — warm. Used to exclude
// cold-start effects from measurement after a warmup phase.
func (h *Hierarchy) ResetStats() {
	h.side.reset()
	h.i.reset()
	h.Traffic = stats.Traffic{}
	h.bySource = [1 << 8]uint64{}
	h.LatePrefetches = 0
	h.DeadGated = 0
	h.FetchBlocks, h.FetchMisses = 0, 0
	h.m.demandAccesses.Set(0)
	h.m.demandMisses.Set(0)
	h.L2.Stats = cache.Stats{}
	h.Bus.ResetStats()
	h.Mem.Requests, h.Mem.PrefetchRequests, h.Mem.QueueStalls = 0, 0, 0
	if r, ok := h.Filter.(interface{ ResetStats() }); ok {
		r.ResetStats()
	}
}

// QueuedPrefetches returns the current prefetch queue depth.
func (h *Hierarchy) QueuedPrefetches() int { return h.Queue.Len() }

// InFlight returns the number of outstanding prefetch fills.
func (h *Hierarchy) InFlight() int { return len(h.fills) }

// Finish classifies state left at end of run on both sides (see
// side.finish), after completing all in-flight fills so counter
// conservation holds, and builds BySource.
func (h *Hierarchy) Finish() {
	h.Tick(^uint64(0))
	h.side.finish()
	if h.FrontendEnabled() {
		h.i.finish()
	}
	h.BySource = make(map[string]uint64)
	for src, n := range h.bySource {
		if n != 0 {
			h.BySource[core.Source(src).String()] += n
		}
	}
}
