package lint

import (
	"strings"
	"testing"

	"repro/internal/filter"
	"repro/internal/frontend"
	"repro/internal/prefetch"
)

// TestBudgetCoversEveryBackend is the acceptance check for `pflint
// -budget`: every registered backend in all three zoos gets a line,
// none of them fails construction, and every backend that claims any
// storage reports a finite nonzero budget.
func TestBudgetCoversEveryBackend(t *testing.T) {
	lines := BudgetReport()
	byKey := map[string]BudgetLine{}
	for _, l := range lines {
		byKey[l.Kind+"/"+l.Name] = l
	}

	expect := map[string][]string{
		"filter":    filter.Registry.Kinds(),
		"generator": prefetch.Registry.Kinds(),
		"iprefetch": frontend.Registry.Kinds(),
	}
	total := 0
	for kind, names := range expect {
		total += len(names)
		for _, name := range names {
			l, ok := byKey[kind+"/"+name]
			if !ok {
				t.Errorf("no budget line for %s/%s", kind, name)
				continue
			}
			for _, n := range l.Notes {
				if strings.HasPrefix(n, "construction failed") {
					t.Errorf("%s/%s: %s", kind, name, n)
				}
			}
		}
	}
	if len(lines) != total {
		t.Errorf("report has %d lines, registries have %d backends", len(lines), total)
	}
}

// TestBudgetDeterministic: the report is built from the default config
// and sorted, so two runs must agree byte for byte (the docs embed it).
func TestBudgetDeterministic(t *testing.T) {
	a := FormatBudget(BudgetReport())
	b := FormatBudget(BudgetReport())
	if a != b {
		t.Fatalf("budget report not deterministic:\n%s\nvs\n%s", a, b)
	}
	if !strings.HasPrefix(a, "KIND") {
		t.Fatalf("report missing header:\n%s", a)
	}
}
