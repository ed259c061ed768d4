// Package registry is the closed backend table the three zoos share:
// the pollution filters (internal/filter), the prefetch generators
// (internal/prefetch) and the instruction prefetchers
// (internal/frontend). Each zoo builds its table once at package init
// from a map of canonical kinds to constructors; aliases resolve through
// the kind's Canonical method, so either spelling selects the same
// constructor. The table is read-only after construction, so it needs
// no lock.
package registry

import (
	"fmt"
	"slices"
	"sort"
)

// Kind is a backend kind name: a string type whose Canonical method
// folds aliases onto the kind the table is keyed by.
type Kind[K any] interface {
	~string
	Canonical() K
}

// Table maps the canonical kinds of one zoo to their constructors.
type Table[K Kind[K], C any] struct {
	noun, plural string
	ctors        map[K]C
	kinds        []string
}

// New builds a table over ctors, whose keys must be canonical kinds.
// noun and plural word the unknown-kind error: "unknown <noun> %q
// (registered <plural>: [...])".
func New[K Kind[K], C any](noun, plural string, ctors map[K]C) *Table[K, C] {
	kinds := make([]string, 0, len(ctors))
	for k := range ctors {
		if k.Canonical() != k {
			panic(fmt.Sprintf("registry: %s kind %q is an alias of %q", noun, k, k.Canonical()))
		}
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	return &Table[K, C]{noun: noun, plural: plural, ctors: ctors, kinds: kinds}
}

// Kinds returns every registered kind, sorted. Aliases are not listed.
func (t *Table[K, C]) Kinds() []string { return slices.Clone(t.kinds) }

// Resolve canonicalises name, or rejects it with an error listing the
// registered kinds.
func (t *Table[K, C]) Resolve(name string) (K, error) {
	k := K(name).Canonical()
	if _, ok := t.ctors[k]; !ok {
		return "", fmt.Errorf("unknown %s %q (registered %s: %v)", t.noun, name, t.plural, t.kinds)
	}
	return k, nil
}

// Lookup returns the constructor of kind (or of its canonical form),
// rejecting an unregistered kind as Resolve does.
func (t *Table[K, C]) Lookup(kind K) (C, error) {
	k, err := t.Resolve(string(kind))
	return t.ctors[k], err
}
