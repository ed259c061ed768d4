package slab

import (
	"sync"
	"testing"
)

// TestGetAfterPutReadsZero: a slice filled with a non-zero pattern and
// Put back reads all zero when Get hands it out again. sync.Pool may drop
// any Put (the race detector drops some on purpose), so the test retries
// until Get returns the same backing array.
func TestGetAfterPutReadsZero(t *testing.T) {
	var p Pool[uint64]
	const n = 1 << 12
	recycled := false
	for try := 0; try < 100 && !recycled; try++ {
		s := p.Get(n)
		for i := range s {
			s[i] = ^uint64(i)
		}
		p.Put(s)
		got := p.Get(n)
		if len(got) != n {
			t.Fatalf("Get(%d) returned length %d", n, len(got))
		}
		for i, v := range got {
			if v != 0 {
				t.Fatalf("word %d of a recycled slice reads %#x, want 0", i, v)
			}
		}
		recycled = &got[0] == &s[0]
		p.Put(got)
	}
	if !recycled {
		t.Fatal("Get never returned the slice Put back")
	}
}

// TestGetKeysByLength: a Put slice comes back only for its own length.
func TestGetKeysByLength(t *testing.T) {
	var p Pool[byte]
	p.Put(make([]byte, 64))
	for _, n := range []int{1, 63, 65, 128} {
		if got := p.Get(n); len(got) != n {
			t.Errorf("Get(%d) returned length %d", n, len(got))
		}
	}
	if got := p.Get(0); len(got) != 0 {
		t.Errorf("Get(0) returned length %d", len(got))
	}
	p.Put(nil) // an empty slice is not kept
}

// TestGetStaleKeepsContents: GetStale hands a recycled slice back as
// its last user left it, and a new one zeroed like make.
func TestGetStaleKeepsContents(t *testing.T) {
	var p Pool[uint64]
	const n = 1 << 12
	if s := p.GetStale(n); len(s) != n || s[0] != 0 || s[n-1] != 0 {
		t.Fatalf("a new GetStale(%d) slice: length %d, ends %#x %#x; want zeroed", n, len(s), s[0], s[n-1])
	}
	recycled := false
	for try := 0; try < 100 && !recycled; try++ {
		s := p.GetStale(n)
		for i := range s {
			s[i] = ^uint64(i)
		}
		p.Put(s)
		got := p.GetStale(n)
		if recycled = &got[0] == &s[0]; recycled {
			for i, v := range got {
				if v != ^uint64(i) {
					t.Fatalf("word %d of a recycled stale slice reads %#x, want %#x", i, v, ^uint64(i))
				}
			}
		}
		p.Put(got)
	}
	if !recycled {
		t.Fatal("GetStale never returned the slice Put back")
	}
}

// TestConcurrentUse: sweep workers share the pools, so Get, GetStale
// and Put run from several goroutines at once; every Get still reads
// zero, and a stale slice one worker wrote is safe for the next to
// overwrite (make race runs this under the race detector).
func TestConcurrentUse(t *testing.T) {
	var p Pool[uint32]
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 256 << (i % 3)
				if i%2 == 1 {
					s := p.GetStale(n)
					for j := range s {
						s[j] = uint32(w + 1)
					}
					p.Put(s)
					continue
				}
				s := p.Get(n)
				for j, v := range s {
					if v != 0 {
						t.Errorf("worker %d: word %d of a %d-slice reads %#x, want 0", w, j, n, v)
						return
					}
					s[j] = uint32(w + 1)
				}
				p.Put(s)
			}
		}(w)
	}
	wg.Wait()
}
