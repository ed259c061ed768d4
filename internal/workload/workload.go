// Package workload provides the ten benchmark models the experiments run.
//
// The paper evaluates on Alpha binaries of bh, em3d, perimeter (Olden),
// ijpeg, fpppp, gcc, wave5 (SPEC95), and gap, gzip, mcf (SPEC2000). Those
// binaries and inputs are not reproducible here, so each benchmark is
// replaced by a deterministic synthetic model that emits an instruction
// trace with the same *memory-access shape* as the original: pointer
// chasing for the Olden codes and mcf, block-strided streaming for ijpeg,
// repeated dense sweeps for fpppp and wave5, branchy irregular heap access
// for gcc and gap, and a sliding-window stream for gzip. Model parameters
// (footprints, mix ratios) are tuned so the no-prefetch L1/L2 miss rates
// land near Table 2; EXPERIMENTS.md records the calibration.
//
// Every model is an infinite isa.Source: the simulator bounds the run by
// instruction count, mirroring the paper's "first 300M instructions"
// methodology. Generation is fully deterministic in the seed.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/xrand"
)

// Spec describes one benchmark model.
type Spec struct {
	// Name is the benchmark's canonical (paper) name.
	Name string
	// Suite is the originating suite: "olden", "spec95", or "spec2000".
	Suite string
	// Input mirrors Table 2's input-set column for documentation.
	Input string
	// PaperL1Miss and PaperL2Miss are Table 2's reference miss rates with
	// prefetching off (local rates), kept for calibration reports.
	PaperL1Miss float64
	PaperL2Miss float64
	// New constructs the model's infinite trace source.
	New func(seed uint64) isa.Source
}

// registry holds all models, populated by the per-suite files' init().
var registry = map[string]Spec{}

func register(s Spec) {
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("workload: duplicate benchmark %q", s.Name))
	}
	registry[s.Name] = s
}

// RegisterExternal adds a benchmark beyond the built-in models — the
// hook trace-backed workloads (internal/tracefile) register through.
// Unlike the init-time register it reports duplicates as errors instead
// of panicking, since external corpora load at runtime from user input.
func RegisterExternal(s Spec) error {
	if s.Name == "" {
		return fmt.Errorf("workload: benchmark name must be set")
	}
	if s.New == nil {
		return fmt.Errorf("workload: benchmark %q has no source constructor", s.Name)
	}
	if _, dup := registry[s.Name]; dup {
		return fmt.Errorf("workload: benchmark %q already registered", s.Name)
	}
	registry[s.Name] = s
	return nil
}

// All returns every benchmark in the paper's presentation order.
func All() []Spec {
	order := []string{"bh", "em3d", "perimeter", "ijpeg", "fpppp", "gcc", "wave5", "gap", "gzip", "mcf"}
	out := make([]Spec, 0, len(registry))
	for _, name := range order {
		if s, ok := registry[name]; ok {
			out = append(out, s)
		}
	}
	// Append any extras (models registered beyond the paper's ten) in
	// deterministic order.
	var extra []string
	for name := range registry {
		found := false
		for _, o := range order {
			if o == name {
				found = true
				break
			}
		}
		if !found {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		out = append(out, registry[name])
	}
	return out
}

// Names returns the benchmark names in presentation order.
func Names() []string {
	specs := All()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// Paper returns only the paper's ten benchmarks, in Table 2 order —
// the set every paper-figure experiment runs on.
func Paper() []Spec {
	out := make([]Spec, 0, 10)
	for _, s := range All() {
		if s.Suite == "olden" || s.Suite == "spec95" || s.Suite == "spec2000" {
			out = append(out, s)
		}
	}
	return out
}

// PaperNames returns the paper benchmarks' names.
func PaperNames() []string {
	specs := Paper()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// ByName looks a benchmark up.
func ByName(name string) (Spec, bool) {
	s, ok := registry[name]
	return s, ok
}

// ---------------------------------------------------------------------------
// Generator framework
// ---------------------------------------------------------------------------

// E is the emission context a model's round function writes records into.
// Helpers stamp synthetic PCs: every static "instruction site" in a model
// gets a distinct small integer, mapped into a code region at pcBase.
type E struct {
	buf []isa.Record
	// Rng drives every random decision of the model.
	Rng *xrand.Rand

	pcBase uint64
	ctx    uint64
}

const (
	defaultPCBase = 0x0040_0000 // synthetic text segment
	// LineBytes is the cache line size assumed when models compute
	// prefetch distances; it matches the Table 1 machines.
	LineBytes = 32
)

// ctxStride is the site-space distance between code contexts: each
// context gets its own copy of sites [0, ctxStride).
const ctxStride = 128

// SetCtx selects the active code context. Real programs reach the same
// logical loop through many static code paths — unrolled iterations,
// inlined copies, distinct call sites — so each dynamic round of a model
// draws one of k contexts, giving the trace a realistically large static
// instruction footprint (k*ctxStride sites). Without this, a PC-indexed
// predictor sees a degenerate handful of keys.
func (e *E) SetCtx(k int) {
	if k <= 0 {
		e.ctx = 0
		return
	}
	e.ctx = e.Rng.Uint64n(uint64(k))
}

// PC returns the synthetic program counter for an instruction site in the
// active context.
func (e *E) PC(site uint64) uint64 {
	return e.pcBase + (e.ctx*ctxStride+site)*isa.InstrBytes
}

// ALU emits one non-memory instruction.
func (e *E) ALU(site uint64) { e.buf = append(e.buf, isa.ALU(e.PC(site))) }

// ALUBlock emits n ALU instructions at consecutive sites starting at site,
// modeling a straight-line computation block.
func (e *E) ALUBlock(site uint64, n int) {
	for i := 0; i < n; i++ {
		e.buf = append(e.buf, isa.ALU(e.PC(site+uint64(i))))
	}
}

// Load emits a demand load.
func (e *E) Load(site uint64, addr uint64) {
	e.buf = append(e.buf, isa.Load(e.PC(site), addr))
}

// DepLoad emits a load serialized behind the previous record (pointer
// chasing: the address came from the previous load's data).
func (e *E) DepLoad(site uint64, addr uint64) {
	e.buf = append(e.buf, isa.DepLoad(e.PC(site), addr))
}

// Store emits a demand store.
func (e *E) Store(site uint64, addr uint64) {
	e.buf = append(e.buf, isa.Store(e.PC(site), addr))
}

// SoftPF emits a compiler-inserted software prefetch.
func (e *E) SoftPF(site uint64, addr uint64) {
	e.buf = append(e.buf, isa.Prefetch(e.PC(site), addr))
}

// LoopBranch emits a backward branch (loop closing), taken unless last.
func (e *E) LoopBranch(site uint64, taken bool) {
	pc := e.PC(site)
	target := pc - 16*isa.InstrBytes
	e.buf = append(e.buf, isa.Branch(pc, target, taken))
}

// CondBranch emits a forward data-dependent branch taken with probability
// p; these are what stress the bimodal predictor.
func (e *E) CondBranch(site uint64, p float64) {
	pc := e.PC(site)
	target := pc + 8*isa.InstrBytes
	e.buf = append(e.buf, isa.Branch(pc, target, e.Rng.Bool(p)))
}

// gen adapts a per-round emission function into an infinite isa.Source.
type gen struct {
	e     *E
	round func(*E)
	pos   int
}

// newGen builds a source that repeatedly invokes round to refill its
// buffer. round must emit at least one record per call.
func newGen(seed uint64, round func(*E)) isa.Source {
	return &gen{
		e:     &E{Rng: xrand.New(seed), pcBase: defaultPCBase},
		round: round,
	}
}

// Next implements isa.Source.
func (g *gen) Next() (isa.Record, bool) {
	if g.pos >= len(g.e.buf) {
		g.refill()
	}
	r := g.e.buf[g.pos]
	g.pos++
	return r, true
}

// NextBatch implements isa.BatchSource: it copies from the round buffer,
// running further rounds until dst is full.
//
//pflint:hotpath
func (g *gen) NextBatch(dst []isa.Record) int {
	n := 0
	for n < len(dst) {
		if g.pos >= len(g.e.buf) {
			g.refill()
		}
		c := copy(dst[n:], g.e.buf[g.pos:])
		g.pos += c
		n += c
	}
	return n
}

// refill runs the next round into the emptied buffer.
func (g *gen) refill() {
	g.e.buf = g.e.buf[:0]
	g.pos = 0
	g.round(g.e)
	if len(g.e.buf) == 0 {
		panic("workload: model round emitted no records")
	}
}

// ---------------------------------------------------------------------------
// Shared address-space layout helpers
// ---------------------------------------------------------------------------

// Region is a contiguous synthetic data region.
type Region struct {
	Base uint64
	Size uint64
}

// At returns the byte address at offset into the region (wrapped).
func (r Region) At(off uint64) uint64 { return r.Base + off%r.Size }

// Line returns the address of the i-th cache line in the region (wrapped).
func (r Region) Line(i uint64) uint64 { return r.At(i * LineBytes) }

// Lines returns how many cache lines the region spans.
func (r Region) Lines() uint64 { return r.Size / LineBytes }

// Standard bases keep models' regions disjoint from the text segment and
// from each other within a model.
const (
	heapBase  = 0x1000_0000
	heap2Base = 0x2000_0000
	heap3Base = 0x3000_0000
	stackBase = 0x7fff_0000
)

// stagger offsets a region base by a slot-specific odd number of cache
// lines. Without it, every region would start cache-size-aligned and
// same-offset accesses into different arrays would all collide in one set
// of the direct-mapped L1 — a pathological layout no real allocator
// produces.
func stagger(base uint64, slot int) uint64 {
	return base + uint64(slot)*37*LineBytes
}
