package cpu

import "repro/internal/isa"

// feedBatch is how many records the core reads from its source at a time.
const feedBatch = 256

// feed is the core's read-ahead buffer over its record source: records
// arrive through isa.Fill, a batch at a time, instead of one interface
// call each. The buffer lives in the CPU, so a run allocates nothing for
// it. A refill asks for at most the records the run's budget has left,
// so the source hands over exactly the records a one-at-a-time reader
// would take, and a decode error past the budget stays unseen.
type feed struct {
	src     isa.Source
	limit   int64 // records the run may take; <= 0 is unbounded
	fetched int64 // records taken from src so far
	ended   bool  // src reported the end of its stream
	pos, n  int   // buf[pos:n] is read but not yet dispatched
	buf     [feedBatch]isa.Record
}

// next returns the next record, valid until the next refill, or nil once
// the source has ended or the budget is spent. The refill stays off the
// fast path, which keeps next small enough to inline.
// A pointer, not a copy: a >4-field struct copied after byte stores stalls store forwarding.
//
//pflint:hotpath
func (f *feed) next() *isa.Record {
	if f.pos == f.n {
		return f.refill()
	}
	f.pos++
	return &f.buf[f.pos-1]
}

// unread pushes back the record next just returned; the following next
// returns it again.
//
//pflint:hotpath
func (f *feed) unread() { f.pos-- }

// drained reports whether every record the run will dispatch has been
// dispatched.
//
//pflint:hotpath
func (f *feed) drained() bool {
	return f.pos == f.n && (f.ended || (f.limit > 0 && f.fetched >= f.limit))
}

// refill reads the next batch into the emptied buffer and returns its
// first record as next would, or nil when it got no records.
func (f *feed) refill() *isa.Record {
	want := int64(feedBatch)
	if f.limit > 0 {
		want = min(want, f.limit-f.fetched)
	}
	if f.ended || want <= 0 {
		return nil
	}
	n := isa.Fill(f.src, f.buf[:want])
	if n == 0 {
		f.ended = true
		return nil
	}
	f.fetched += int64(n)
	f.pos, f.n = 1, n
	return &f.buf[0]
}
