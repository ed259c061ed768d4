// Package isa defines the instruction-level trace model the simulator
// consumes.
//
// The paper drives SimpleScalar with Alpha binaries; this reproduction is
// trace-driven instead. A trace is a stream of Record values, one per
// dynamic instruction. Only the properties the timing model needs are
// carried: the class of the instruction, its PC, the effective address for
// memory operations, and the outcome for branches. Software prefetch
// instructions (the Alpha "load into $r31" idiom) appear as explicit
// OpPrefetch records.
package isa

import "fmt"

// Op classifies a dynamic instruction.
type Op uint8

// Instruction classes. OpALU stands in for every non-memory, non-branch
// instruction (integer and floating point alike); the timing model only
// needs to know it occupies an issue slot and a ROB entry.
const (
	OpALU Op = iota
	OpLoad
	OpStore
	OpBranch
	OpPrefetch // software prefetch: non-blocking, non-faulting load hint
	opSentinel // internal: one past the last valid op
)

// String returns the mnemonic for the op class.
func (o Op) String() string {
	switch o {
	case OpALU:
		return "alu"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpBranch:
		return "branch"
	case OpPrefetch:
		return "prefetch"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Valid reports whether o is a defined op class.
func (o Op) Valid() bool { return o < opSentinel }

// IsMem reports whether the op accesses the data cache.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore || o == OpPrefetch }

// Record is one dynamic instruction in a trace.
type Record struct {
	// Op is the instruction class.
	Op Op
	// Taken is meaningful only for OpBranch: the resolved direction.
	Taken bool
	// Dep marks a serialized data dependency on the previous record: the
	// instruction cannot issue until its predecessor completes. Workload
	// models set it on pointer-chasing loads, where each access address is
	// computed from the previous load's data; it is how the trace-driven
	// model preserves the (lack of) memory-level parallelism that makes
	// pointer codes latency-bound.
	Dep bool
	// PC is the instruction address. Instructions are 4 bytes (Alpha-like),
	// so distinct static instructions differ in PC by multiples of 4.
	PC uint64
	// Addr is the effective byte address for memory ops, or the branch
	// target for taken branches.
	Addr uint64
}

// InstrBytes is the fixed instruction size; PC-based filter keys strip the
// low bits implied by this (the paper: "PC offset by the instruction size").
const InstrBytes = 4

// Validate reports structural problems with a record.
func (r Record) Validate() error {
	if !r.Op.Valid() {
		return fmt.Errorf("isa: invalid op %d", uint8(r.Op))
	}
	if r.PC%InstrBytes != 0 {
		return fmt.Errorf("isa: PC %#x not %d-byte aligned", r.PC, InstrBytes)
	}
	return nil
}

// ALU returns an ALU record at pc.
func ALU(pc uint64) Record { return Record{Op: OpALU, PC: pc} }

// Load returns a load record.
func Load(pc, addr uint64) Record { return Record{Op: OpLoad, PC: pc, Addr: addr} }

// Store returns a store record.
func Store(pc, addr uint64) Record { return Record{Op: OpStore, PC: pc, Addr: addr} }

// Branch returns a branch record with its resolved direction and target.
func Branch(pc, target uint64, taken bool) Record {
	return Record{Op: OpBranch, PC: pc, Addr: target, Taken: taken}
}

// Prefetch returns a software-prefetch record.
func Prefetch(pc, addr uint64) Record { return Record{Op: OpPrefetch, PC: pc, Addr: addr} }

// DepLoad returns a load serialized behind the previous record (pointer
// chasing).
func DepLoad(pc, addr uint64) Record { return Record{Op: OpLoad, PC: pc, Addr: addr, Dep: true} }

// Source produces a stream of records. Next returns the next record and
// true, or a zero Record and false when the trace is exhausted; once it
// has returned false it keeps returning false.
//
// Sources are single-consumer and not safe for concurrent use.
type Source interface {
	Next() (Record, bool)
}

// BatchSource is a Source that can also hand over records in bulk.
// NextBatch fills a prefix of dst, which must not be empty, and returns
// its length. A return of 0 means the stream has ended, exactly as Next's
// false does; a short return does not. Next and NextBatch read the same
// stream and may be interleaved.
type BatchSource interface {
	Source
	NextBatch(dst []Record) int
}

// Fill reads up to len(dst) records from src into dst, which must not be
// empty, and returns how many it read; 0 means the stream has ended. It
// goes through NextBatch when src is a BatchSource and loops Next
// otherwise, so every Source can be read in batches.
func Fill(src Source, dst []Record) int {
	if b, ok := src.(BatchSource); ok {
		return b.NextBatch(dst)
	}
	for i := range dst {
		r, ok := src.Next()
		if !ok {
			return i
		}
		dst[i] = r
	}
	return len(dst)
}

// SliceSource adapts a pre-built record slice into a Source. It is the
// workhorse for tests and for replaying decoded trace files.
type SliceSource struct {
	recs []Record
	pos  int
}

// NewSliceSource wraps recs; the slice is not copied.
func NewSliceSource(recs []Record) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() (Record, bool) {
	if s.pos >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// Len returns the total number of records.
func (s *SliceSource) Len() int { return len(s.recs) }

// LimitSource caps an underlying source at n records.
type LimitSource struct {
	src  Source
	left int64
}

// NewLimitSource returns a Source that yields at most n records from src.
// n <= 0 yields nothing.
func NewLimitSource(src Source, n int64) *LimitSource {
	return &LimitSource{src: src, left: n}
}

// Next implements Source.
func (l *LimitSource) Next() (Record, bool) {
	if l.left <= 0 {
		return Record{}, false
	}
	r, ok := l.src.Next()
	if !ok {
		l.left = 0
		return Record{}, false
	}
	l.left--
	return r, true
}

// FuncSource adapts a closure into a Source.
type FuncSource func() (Record, bool)

// Next implements Source.
func (f FuncSource) Next() (Record, bool) { return f() }

// Collect drains up to max records from src into a slice. max <= 0 drains
// everything; use with care on infinite generators.
func Collect(src Source, max int) []Record {
	var out []Record
	for max <= 0 || len(out) < max {
		r, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

// InterleaveSource round-robins between several sources, switching after
// `quantum` records — a coarse model of multiprogramming context switches
// over a shared cache hierarchy. The interleave ends when every source is
// exhausted; exhausted sources are skipped.
type InterleaveSource struct {
	srcs    []Source
	quantum int64
	cur     int
	used    int64
	done    []bool
	left    int
}

// NewInterleaveSource builds an interleaver. quantum must be positive and
// at least one source must be given.
func NewInterleaveSource(quantum int64, srcs ...Source) (*InterleaveSource, error) {
	if quantum <= 0 {
		return nil, fmt.Errorf("isa: interleave quantum must be positive, got %d", quantum)
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("isa: interleave needs at least one source")
	}
	return &InterleaveSource{
		srcs:    srcs,
		quantum: quantum,
		done:    make([]bool, len(srcs)),
		left:    len(srcs),
	}, nil
}

// Next implements Source.
func (s *InterleaveSource) Next() (Record, bool) {
	for s.left > 0 {
		if s.done[s.cur] || s.used >= s.quantum {
			// Context switch to the next live source.
			s.used = 0
			for i := 0; i < len(s.srcs); i++ {
				s.cur = (s.cur + 1) % len(s.srcs)
				if !s.done[s.cur] {
					break
				}
			}
			if s.done[s.cur] {
				return Record{}, false
			}
		}
		rec, ok := s.srcs[s.cur].Next()
		if ok {
			s.used++
			return rec, true
		}
		s.done[s.cur] = true
		s.left--
		s.used = s.quantum // force a switch on the next call
	}
	return Record{}, false
}
