// The bounded single-flight result memo. The experiment harness layers
// it in front of its persistent run cache so that concurrent experiments
// — or racing Prewarm workers — never execute the same (benchmark,
// config, seed) simulation twice: the first caller computes, everyone
// else waits for (and shares) that result.

package sched

import (
	"container/list"
	"context"
	"sync"
)

// memoEntry is one in-flight or completed computation.
type memoEntry[V any] struct {
	done chan struct{} // closed when val/err are final
	val  V
	err  error
	key  string
	elem *list.Element // its place in the recency list once completed successfully
}

// Memo is a bounded, single-flight memoization cache. The zero value is
// not usable; call NewMemo. All methods are safe for concurrent use.
//
// Completed successful results are retained up to the bound and evicted
// least-recently-used beyond it; errors are never cached, so a failed
// key can be retried. In-flight entries are exempt from eviction — the
// bound applies to completed results only.
type Memo[V any] struct {
	mu      sync.Mutex
	max     int
	entries map[string]*memoEntry[V]
	// lru lists the completed successful entries, least recently used
	// first: a completion or a Do hit moves an entry to the back, and
	// eviction pops the front, so both are O(1).
	lru list.List
}

// NewMemo builds a memo retaining up to max completed results; max <= 0
// disables retention (pure in-flight deduplication).
func NewMemo[V any](max int) *Memo[V] {
	if max < 0 {
		max = 0
	}
	return &Memo[V]{max: max, entries: make(map[string]*memoEntry[V])}
}

// Len reports the number of resident entries (in-flight + completed).
func (m *Memo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Do returns the memoized result for key, computing it with fn exactly
// once no matter how many goroutines ask concurrently. Callers that find
// the computation already in flight wait for it; a waiter whose ctx is
// cancelled gives up with ctx.Err() while the computation itself keeps
// running under the owner's ctx.
func (m *Memo[V]) Do(ctx context.Context, key string, fn func(context.Context) (V, error)) (V, error) {
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		if e.elem != nil {
			m.lru.MoveToBack(e.elem)
		}
		m.mu.Unlock()
		select {
		case <-e.done:
			return e.val, e.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	e := &memoEntry[V]{done: make(chan struct{}), key: key}
	m.entries[key] = e
	m.mu.Unlock()

	e.val, e.err = fn(ctx)
	close(e.done)

	m.mu.Lock()
	if e.err != nil {
		// Never cache failures: a retry must recompute. Guard against the
		// slot having been replaced (possible once we deleted and another
		// goroutine re-inserted — it cannot happen before this point, but
		// the check is cheap and keeps the invariant local).
		if m.entries[key] == e {
			delete(m.entries, key)
		}
	} else {
		// The entry joins the list as its most recent member at
		// completion, not at insert: a slow computation must not be the
		// LRU victim the instant it completes because other keys were
		// touched while it ran.
		e.elem = m.lru.PushBack(e)
		for m.lru.Len() > m.max {
			victim := m.lru.Remove(m.lru.Front()).(*memoEntry[V])
			delete(m.entries, victim.key)
		}
	}
	m.mu.Unlock()
	return e.val, e.err
}

// Get returns the completed result cached under key, if any. In-flight
// entries report absent (Get never blocks). Get does not count as a use
// for eviction order.
func (m *Memo[V]) Get(key string) (V, bool) {
	m.mu.Lock()
	e, ok := m.entries[key]
	m.mu.Unlock()
	if !ok {
		var zero V
		return zero, false
	}
	select {
	case <-e.done:
		if e.err != nil {
			var zero V
			return zero, false
		}
		return e.val, true
	default:
		var zero V
		return zero, false
	}
}
