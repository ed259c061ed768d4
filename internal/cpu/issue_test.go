package cpu

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/xrand"
)

// issueRecorder sits in the hierarchy's hardware-prefetcher slot, which
// sees every demand access in the order the core issues it, and hashes
// each access before passing it on to the prefetchers it replaced.
type issueRecorder struct {
	inner prefetch.Prefetcher
	sum   hash.Hash
	buf   [25]byte
}

func (r *issueRecorder) Name() string { return "issue-recorder" }

func (r *issueRecorder) Observe(ev prefetch.Event, emit func(prefetch.Candidate)) {
	binary.LittleEndian.PutUint64(r.buf[0:], ev.Cycle)
	binary.LittleEndian.PutUint64(r.buf[8:], ev.PC)
	binary.LittleEndian.PutUint64(r.buf[16:], ev.LineAddr)
	r.buf[24] = 0
	if ev.IsStore {
		r.buf[24] = 1
	}
	r.sum.Write(r.buf[:])
	r.inner.Observe(ev, emit)
}

// issueStream builds a record stream of ALU runs and branches between
// memory ops: independent loads and stores over a few hot lines and a
// strided cold region, Dep chains of up to five loads, Dep-held stores
// and software prefetches (which take an LSQ entry but never issue to a
// port). memFrac is the share of slots that start a memory op.
func issueStream(seed uint64, n int, memFrac float64) []isa.Record {
	rng := xrand.New(seed)
	recs := make([]isa.Record, 0, n+8)
	pc := uint64(0x400000)
	cold := uint64(0x100000)
	next := func() uint64 { pc += isa.InstrBytes; return pc }
	addr := func() uint64 {
		if rng.Bool(0.8) {
			return 0x8000 + uint64(rng.Intn(16))*32
		}
		cold += 4096 + 32
		return cold
	}
	for len(recs) < n {
		if !rng.Bool(memFrac) {
			if rng.Bool(0.2) {
				// Four static branches, mostly taken: the predictor learns
				// them, so mispredicts are rare and the ROB fills.
				recs = append(recs, isa.Branch(0x3ff000+uint64(rng.Intn(4))*isa.InstrBytes, 0x400000, rng.Bool(0.9)))
				continue
			}
			for k := 1 + rng.Intn(6); k > 0; k-- {
				recs = append(recs, isa.ALU(next()))
			}
			continue
		}
		switch r := rng.Intn(10); {
		case r < 4:
			recs = append(recs, isa.Load(next(), addr()))
		case r < 6:
			recs = append(recs, isa.Store(next(), addr()))
		case r < 8:
			for k := 2 + rng.Intn(4); k > 0; k-- {
				recs = append(recs, isa.DepLoad(next(), addr()))
			}
		case r < 9:
			recs = append(recs, isa.Record{Op: isa.OpStore, PC: next(), Addr: addr(), Dep: true})
		default:
			recs = append(recs, isa.Prefetch(next(), addr()))
		}
	}
	return recs
}

// TestIssueOrderPinned pins the order, cycle and address of every demand
// access the issue stage sends to the L1, plus the core's result, over
// machines that differ in the three resources the stage arbitrates:
// L1 ports, LSQ entries and MSHRs. The stage must issue ready memory ops
// oldest first, end its walk at the first op that finds every port used,
// skip a Dep-held op and an MSHR-refused load without ending it, and
// leave the prefetch queue only the ports demand left over; a change to
// any of these moves the digest.
func TestIssueOrderPinned(t *testing.T) {
	const want = "95a3ea3dc7546d777978a4f67c337be8af6be7b7d344ea6f903d39df2830ab8c"
	sum := sha256.New()
	for _, ports := range []int{1, 2} {
		for _, lsq := range []int{4, 64} {
			for _, mshrs := range []int{0, 2} {
				for i, memFrac := range []float64{0.3, 0.6, 0.9} {
					cfg := config.Default()
					cfg.L1.Ports = ports
					cfg.CPU.LSQEntries = lsq
					cfg.CPU.MSHRs = mshrs
					c, h := newCPU(t, cfg)
					rec := &issueRecorder{inner: h.HW, sum: sum}
					h.HW = rec
					res := c.Run(isa.NewSliceSource(issueStream(uint64(i+1), 3000, memFrac)), 0, 0)
					fmt.Fprintf(sum, "%+v\n", res)
				}
			}
		}
	}
	if got := fmt.Sprintf("%x", sum.Sum(nil)); got != want {
		t.Fatalf("issue-order digest = %s, want %s", got, want)
	}
}
