package cpu

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
)

// countingSource is a BatchSource that counts the records it hands over.
// It ends after total records (never, when total is negative) and caps
// each batch at maxBatch records, so the core also sees short batches
// that are not the end of the stream.
type countingSource struct {
	total     int64
	maxBatch  int
	delivered int64
	pc        uint64
}

func (s *countingSource) Next() (isa.Record, bool) {
	var one [1]isa.Record
	if s.NextBatch(one[:]) == 0 {
		return isa.Record{}, false
	}
	return one[0], true
}

func (s *countingSource) NextBatch(dst []isa.Record) int {
	n := min(len(dst), s.maxBatch)
	if s.total >= 0 {
		n = min(n, int(s.total-s.delivered))
	}
	for i := range dst[:n] {
		// Every third record is a load and every 64th jumps the PC to a
		// new code page, so both the LSQ and the L1I make the core push
		// records back. The stream depends only on the record's index,
		// not on how it was batched.
		k := uint64(s.delivered) + uint64(i)
		s.pc += isa.InstrBytes
		if k%64 == 0 {
			s.pc += 4096
		}
		if k%3 == 0 {
			dst[i] = isa.Load(s.pc, 0x1000_0000+k*64)
		} else {
			dst[i] = isa.ALU(s.pc)
		}
	}
	s.delivered += int64(n)
	return n
}

// TestRunReadsExactlyItsBudget pins that reading records in batches does
// not change what the core takes from its source: exactly maxInstr +
// warmup records, or the whole stream when it ends first, whatever the
// batch sizes and push-backs.
func TestRunReadsExactlyItsBudget(t *testing.T) {
	fe := quietConfig().WithIPrefetch(config.IPrefetchNone)
	lsq := quietConfig()
	lsq.CPU.LSQEntries = 2
	cases := []struct {
		name              string
		cfg               config.Config
		maxInstr, warmup  int64
		total             int64
		maxBatch          int
		want              int64
		fetchStall, lsqOn bool
	}{
		{name: "one", cfg: quietConfig(), maxInstr: 1, total: -1, maxBatch: 1 << 10, want: 1},
		{name: "below-batch", cfg: quietConfig(), maxInstr: 255, total: -1, maxBatch: 1 << 10, want: 255},
		{name: "batch", cfg: quietConfig(), maxInstr: feedBatch, total: -1, maxBatch: 1 << 10, want: feedBatch},
		{name: "batch-plus-one", cfg: quietConfig(), maxInstr: feedBatch + 1, total: -1, maxBatch: 1 << 10, want: feedBatch + 1},
		{name: "warmup", cfg: quietConfig(), maxInstr: 5000, warmup: 1234, total: -1, maxBatch: 1 << 10, want: 6234},
		{name: "short-batches", cfg: quietConfig(), maxInstr: 3000, warmup: 700, total: -1, maxBatch: 7, want: 3700},
		{name: "exhausting", cfg: quietConfig(), maxInstr: 5000, warmup: 100, total: 999, maxBatch: 1 << 10, want: 999},
		{name: "exhausting-unbounded", cfg: quietConfig(), maxInstr: 0, total: 1500, maxBatch: 100, want: 1500},
		{name: "fetch-stall", cfg: fe, maxInstr: 4000, warmup: 1000, total: -1, maxBatch: 1 << 10, want: 5000, fetchStall: true},
		{name: "lsq-full", cfg: lsq, maxInstr: 4000, warmup: 100, total: -1, maxBatch: 1 << 10, want: 4100, lsqOn: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := newCPU(t, tc.cfg)
			src := &countingSource{total: tc.total, maxBatch: tc.maxBatch, pc: 0x40_0000}
			res := c.Run(src, tc.maxInstr, tc.warmup)
			if src.delivered != tc.want {
				t.Fatalf("source delivered %d records, want %d", src.delivered, tc.want)
			}
			if tc.fetchStall && res.FetchStallCycles == 0 {
				t.Fatal("no fetch stall: the push-back path went untested")
			}
			if tc.lsqOn && res.LSQStallCycles == 0 {
				t.Fatal("no LSQ stall: the push-back path went untested")
			}
		})
	}
}

// TestRunBatchedMatchesOneAtATime pins that the core's result does not
// depend on how its source batches: the same records through a
// BatchSource and through a plain Source give the same Result.
func TestRunBatchedMatchesOneAtATime(t *testing.T) {
	cfg := quietConfig().WithIPrefetch(config.IPrefetchNextLine)
	batched, _ := newCPU(t, cfg)
	want := batched.Run(&countingSource{total: -1, maxBatch: 5, pc: 0x40_0000}, 20000, 3000)
	plain, _ := newCPU(t, cfg)
	src := &countingSource{total: -1, maxBatch: 1 << 10, pc: 0x40_0000}
	got := plain.Run(isa.FuncSource(src.Next), 20000, 3000)
	if got != want {
		t.Fatalf("one-at-a-time result %+v, batched %+v", got, want)
	}
}
