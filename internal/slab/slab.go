// Package slab recycles the large fixed-size arrays a simulated machine
// is built from (cache tags, stamps and frame records, BTB ways), so a
// sweep that builds one machine per cell pays for those arrays once per
// worker instead of once per cell.
//
// A Pool keeps one sync.Pool per slice length. Keying by length keeps an
// L1-sized array from being handed out where an L2-sized one is wanted
// (and dropped again), and sync.Pool leaves the memory to the
// garbage collector: an idle pool empties over two collections instead of
// pinning the peak.
package slab

import "sync"

// Pool hands out slices of T. The zero value is ready to use.
type Pool[T any] struct {
	byLen sync.Map // int -> *sync.Pool of *[]T, added by the first Put of that length
}

// Get returns a zeroed slice of length n, exactly like make([]T, n):
// a recycled one when a slice of that length was Put back, else a new one.
func (p *Pool[T]) Get(n int) []T {
	if s, ok := p.recycled(n); ok {
		clear(s)
		return s
	}
	return make([]T, n)
}

// GetStale is Get without the clearing: a recycled slice keeps whatever
// its last user left in it. It suits an array whose owner writes every
// element before reading it, as a cache does with the stamps and records
// of the frames its zeroed tag array marks empty.
func (p *Pool[T]) GetStale(n int) []T {
	if s, ok := p.recycled(n); ok {
		return s
	}
	return make([]T, n)
}

// recycled returns a slice of length n that was Put back, if the pool
// still holds one.
func (p *Pool[T]) recycled(n int) ([]T, bool) {
	if v, ok := p.byLen.Load(n); ok {
		if s, ok := v.(*sync.Pool).Get().(*[]T); ok {
			return *s, true
		}
	}
	return nil, false
}

// Put gives s back for a later Get of the same length. The caller must
// not touch s afterwards.
func (p *Pool[T]) Put(s []T) {
	if len(s) == 0 {
		return
	}
	v, ok := p.byLen.Load(len(s))
	if !ok {
		v, _ = p.byLen.LoadOrStore(len(s), new(sync.Pool))
	}
	v.(*sync.Pool).Put(&s)
}
