package registry

import (
	"slices"
	"strings"
	"testing"
)

// kind is a test kind: "first" and "1st" are aliases of "one".
type kind string

func (k kind) Canonical() kind {
	switch k {
	case "first", "1st":
		return "one"
	}
	return k
}

func TestTable(t *testing.T) {
	tab := New("widget", "widgets", map[kind]int{"two": 2, "one": 1, "three": 3})
	want := []string{"one", "three", "two"}
	if kinds := tab.Kinds(); !slices.Equal(kinds, want) {
		t.Fatalf("Kinds() = %v, want %v (sorted, no aliases)", kinds, want)
	}
	tab.Kinds()[0] = "mutated"
	if kinds := tab.Kinds(); !slices.Equal(kinds, want) {
		t.Fatalf("Kinds() = %v after a caller mutated a result; want a fresh copy", kinds)
	}

	for _, tc := range []struct {
		name string
		kind kind
		ctor int
	}{
		{"one", "one", 1},
		{"first", "one", 1},
		{"1st", "one", 1},
		{"two", "two", 2},
		{"three", "three", 3},
	} {
		got, err := tab.Resolve(tc.name)
		if err != nil || got != tc.kind {
			t.Errorf("Resolve(%q) = %q, %v; want %q", tc.name, got, err, tc.kind)
		}
		ctor, err := tab.Lookup(kind(tc.name))
		if err != nil || ctor != tc.ctor {
			t.Errorf("Lookup(%q) = %d, %v; want %d", tc.name, ctor, err, tc.ctor)
		}
	}

	for _, name := range []string{"", "four", "One"} {
		_, err := tab.Resolve(name)
		if err == nil {
			t.Fatalf("Resolve(%q) accepted an unknown name", name)
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, `unknown widget "`+name+`" (registered widgets: `) {
			t.Errorf("Resolve(%q) error %q: wrong wording", name, msg)
		}
		for _, k := range want {
			if !strings.Contains(msg, k) {
				t.Errorf("Resolve(%q) error %q does not list %q", name, msg, k)
			}
		}
		if _, err := tab.Lookup(kind(name)); err == nil || err.Error() != msg {
			t.Errorf("Lookup(%q) error %v, want %q", name, err, msg)
		}
	}
}

func TestNewRejectsAliasKeys(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an alias as a table key")
		}
	}()
	New("widget", "widgets", map[kind]int{"first": 1})
}
