// Package slab recycles the large fixed-size arrays a simulated machine
// is built from (cache lines and tags, BTB ways), so a sweep that builds
// one machine per cell pays for those arrays once per worker instead of
// once per cell.
//
// A Pool keeps one sync.Pool per slice length. Keying by length keeps an
// L1-sized array from being handed out where an L2-sized one is wanted
// (and dropped again), and sync.Pool leaves the memory to the
// garbage collector: an idle pool empties over two collections instead of
// pinning the peak.
package slab

import "sync"

// Pool hands out zeroed slices of T. The zero value is ready to use.
type Pool[T any] struct {
	byLen sync.Map // int -> *sync.Pool of *[]T, added by the first Put of that length
}

// Get returns a zeroed slice of length n, exactly like make([]T, n):
// a recycled one when a slice of that length was Put back, else a new one.
func (p *Pool[T]) Get(n int) []T {
	if v, ok := p.byLen.Load(n); ok {
		if s, ok := v.(*sync.Pool).Get().(*[]T); ok {
			clear(*s)
			return *s
		}
	}
	return make([]T, n)
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
