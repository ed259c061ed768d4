package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	pfilter "repro/internal/filter"
	"repro/internal/frontend"
	"repro/internal/hier"
	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// sampleMask times one call in 64 at every seam. A timed span costs two
// clock reads, more than many of the calls it would time; counting every
// call costs an increment.
const sampleMask = 63

// readAhead is the record-source batch. The source takes no feedback from
// the simulation, so reading it ahead in timed batches changes nothing the
// core sees and measures its cost exactly.
const readAhead = 4096

// span accumulates one seam: every call is counted, one in sampleMask+1
// is timed, and the timed calls' self time (null-span cost subtracted)
// extrapolates to all calls.
type span struct {
	calls uint64
	timed uint64
	ns    float64
}

// tick counts a call and reports whether to time it.
func (s *span) tick() bool {
	s.calls++
	return s.calls&sampleMask == 0
}

func (s *span) add(ns float64) {
	s.timed++
	s.ns += ns
}

// self is the seam's estimated self time over all calls, in ns.
func (s *span) self() float64 {
	if s.timed == 0 {
		return 0
	}
	return s.ns / float64(s.timed) * float64(s.calls)
}

// calibrateNull measures an empty timed span: the clock-read cost every
// timed span carries and each wrapper subtracts, so that it is not
// counted as the layer's time.
func calibrateNull() float64 {
	const batch = 20000
	samples := make([]float64, 0, 9)
	for b := 0; b < 9; b++ {
		var tot time.Duration
		for i := 0; i < batch; i++ {
			t := time.Now()
			tot += time.Since(t)
		}
		samples = append(samples, float64(tot)/batch)
	}
	return median(samples)
}

// observer is the shape of both generator zoos: prefetch.Prefetcher on
// the D-side and frontend.Prefetcher on the I-side.
type observer[E, C any] interface {
	Name() string
	Observe(ev E, emit func(C))
}

// tracedObserver wraps a generator. On a timed call it also times every
// candidate it emits: the hierarchy's sink (duplicate squashing, the
// pollution filter, the queue) belongs to other layers, so the
// generator's self time excludes it.
type tracedObserver[E, C any] struct {
	inner observer[E, C]
	null  float64
	s     span

	sink      func(C) // the hierarchy's sink during a timed call
	childNS   float64
	children  int
	timedEmit func(C) // built once: a fresh closure per call would allocate
}

func newTracedObserver[E, C any](inner observer[E, C], null float64) *tracedObserver[E, C] {
	o := &tracedObserver[E, C]{inner: inner, null: null}
	o.timedEmit = func(c C) {
		t := time.Now()
		o.sink(c)
		o.childNS += float64(time.Since(t))
		o.children++
	}
	return o
}

func (o *tracedObserver[E, C]) Name() string { return o.inner.Name() }

func (o *tracedObserver[E, C]) Observe(ev E, emit func(C)) {
	if !o.s.tick() {
		o.inner.Observe(ev, emit)
		return
	}
	o.sink, o.childNS, o.children = emit, 0, 0
	t := time.Now()
	o.inner.Observe(ev, o.timedEmit)
	total := float64(time.Since(t))
	o.s.add(total - o.childNS - o.null*float64(1+o.children))
}

// tracedFilter wraps the pollution filter handed to hier.New.
type tracedFilter struct {
	inner        core.Filter
	null         float64
	allow, train span
	onReset      func()
}

func (f *tracedFilter) Allow(req core.Request) bool {
	if !f.allow.tick() {
		return f.inner.Allow(req)
	}
	t := time.Now()
	ok := f.inner.Allow(req)
	f.allow.add(float64(time.Since(t)) - f.null)
	return ok
}

func (f *tracedFilter) Train(fb core.Feedback) {
	if !f.train.tick() {
		f.inner.Train(fb)
		return
	}
	t := time.Now()
	f.inner.Train(fb)
	f.train.add(float64(time.Since(t)) - f.null)
}

func (f *tracedFilter) Name() string      { return f.inner.Name() }
func (f *tracedFilter) Stats() core.Stats { return f.inner.Stats() }

// ResetStats must be forwarded: the hierarchy type-asserts its filter
// for it at the warmup boundary, and without it the filter's statistics
// would keep the warmup's queries. It also marks that boundary.
func (f *tracedFilter) ResetStats() {
	if r, ok := f.inner.(interface{ ResetStats() }); ok {
		r.ResetStats()
	}
	f.onReset()
}

// tracedSource reads the record source ahead in timed batches.
type tracedSource struct {
	inner   isa.Source
	buf     []isa.Record
	pos     int
	done    bool
	ns      float64
	records uint64
}

func (s *tracedSource) Next() (isa.Record, bool) {
	if s.pos == len(s.buf) {
		if s.done {
			return isa.Record{}, false
		}
		s.fill()
		if len(s.buf) == 0 {
			return isa.Record{}, false
		}
	}
	r := s.buf[s.pos]
	s.pos++
	return r, true
}

func (s *tracedSource) fill() {
	s.buf, s.pos = s.buf[:0], 0
	t := time.Now()
	for len(s.buf) < readAhead {
		r, ok := s.inner.Next()
		if !ok {
			s.done = true
			break
		}
		s.buf = append(s.buf, r)
	}
	s.ns += float64(time.Since(t))
	s.records += uint64(len(s.buf))
}

// cellTrace is one traced cell's seam accounting, all times in ns.
type cellTrace struct {
	wall     float64
	source   float64
	records  uint64
	prefetch span
	frontend span
	allow    span
	train    span
	// hierWindow is cpu_hier's self time in the measured window (from the
	// warmup boundary to the end), the numerator of ns per simulated cycle.
	hierWindow float64
}

// seamSelf sums the wrapped layers' self times.
func (t *cellTrace) seamSelf() float64 {
	return t.source + t.prefetch.self() + t.frontend.self() + t.allow.self() + t.train.self()
}

// traceCell runs one cell through the simulator's public constructors
// with every seam wrapped, step for step as sim.Run assembles it, and
// returns the result sim.Run would return. buf is the read-ahead buffer,
// reused across cells so it allocates once.
func traceCell(c cell, n, warmup int64, null float64, buf []isa.Record) (stats.Run, cellTrace, error) {
	cfg := c.cfg
	var tr cellTrace
	start := time.Now()
	if err := cfg.Validate(); err != nil {
		return stats.Run{}, tr, err
	}
	spec, ok := workload.ByName(c.bench)
	if !ok {
		return stats.Run{}, tr, fmt.Errorf("unknown benchmark %q", c.bench)
	}
	src := &tracedSource{inner: spec.New(cfg.Seed), buf: buf[:0]}
	f, err := pfilter.New(cfg.Filter)
	if err != nil {
		return stats.Run{}, tr, err
	}
	var (
		pf *tracedObserver[prefetch.Event, prefetch.Candidate]
		fe *tracedObserver[frontend.Event, frontend.Candidate]
	)
	tf := &tracedFilter{inner: f, null: null}
	// collect copies the seams' accounting into tr and returns their
	// summed self time.
	collect := func() float64 {
		tr.source, tr.records = src.ns, src.records
		tr.prefetch, tr.allow, tr.train = pf.s, tf.allow, tf.train
		if fe != nil {
			tr.frontend = fe.s
		}
		return tr.seamSelf()
	}
	boundary, boundarySelf := start, 0.0
	tf.onReset = func() { boundary, boundarySelf = time.Now(), collect() }

	h, err := hier.New(cfg, tf, xrand.New(cfg.Seed^0xfeed))
	if err != nil {
		return stats.Run{}, tr, err
	}
	pf = newTracedObserver[prefetch.Event, prefetch.Candidate](h.HW, null)
	h.HW = pf
	if h.IHW != nil {
		fe = newTracedObserver[frontend.Event, frontend.Candidate](h.IHW, null)
		h.IHW = fe
	}
	cp, err := cpu.New(cfg.CPU, h)
	if err != nil {
		return stats.Run{}, tr, err
	}
	res := cp.Run(src, n, warmup)
	h.Finish()
	if cl, ok := src.inner.(io.Closer); ok {
		if err := cl.Close(); err != nil {
			return stats.Run{}, tr, fmt.Errorf("%s source: %w", spec.Name, err)
		}
	}
	end := time.Now()
	self := collect()
	tr.wall = float64(end.Sub(start))
	tr.hierWindow = float64(end.Sub(boundary)) - (self - boundarySelf)

	fs := tf.Stats()
	run := stats.Run{
		Benchmark:    spec.Name,
		Filter:       tf.Name(),
		Instructions: res.Instructions,
		Cycles:       res.Cycles,
		Prefetches:   h.Pf,
		Traffic:      h.Traffic,

		L1DemandAccesses: h.L1.Stats.DemandAccesses,
		L1DemandMisses:   h.L1.Stats.DemandMisses,
		L2DemandAccesses: h.L2.Stats.DemandAccesses,
		L2DemandMisses:   h.L2.Stats.DemandMisses,

		BranchPredictions:    res.BranchPredictions,
		BranchMispredictions: res.BranchMispredictions,

		PortConflictCycles: res.PortConflictCycles,
		PrefetchPortWaits:  res.PrefetchPortWaits,

		FilterQueries:  fs.Queries,
		FilterRejected: fs.Rejected,

		BySource: h.BySource,
	}
	if h.FrontendEnabled() {
		run.Frontend = &stats.Frontend{
			IPrefetcher:      string(cfg.Frontend.IPrefetch.Canonical()),
			FetchBlocks:      h.FetchBlocks,
			FetchMisses:      h.FetchMisses,
			FetchStallCycles: res.FetchStallCycles,
			Prefetches:       h.IPf,
		}
	}
	return run, tr, nil
}

// dryBuild constructs a cell's machine without running it: the set-up
// check that every cell's configuration builds.
func dryBuild(cfg config.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	f, err := pfilter.New(cfg.Filter)
	if err != nil {
		return err
	}
	h, err := hier.New(cfg, f, xrand.New(cfg.Seed^0xfeed))
	if err != nil {
		return err
	}
	_, err = cpu.New(cfg.CPU, h)
	return err
}
