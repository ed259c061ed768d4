// The runtime half of the hwbudget analyzer: BudgetReport instantiates
// every registered filter, prefetch-generator, and instruction-prefetch
// backend from the default configuration and measures its storage by
// reflection — unexported fields are simulated hardware state, exported
// fields are observability counters (the repo-wide convention hwbudget
// enforces statically). The bit counts are the Go representation of the
// state, so they are an upper bound on a real implementation (a 2-bit
// counter stored in a uint8 reports 8 bits); what the report guarantees
// is that the bound is finite and fixed at construction. `pflint
// -budget` prints it, and docs/LINTING.md carries the table as the
// realizability story for the zoo — and the on-ramp to the ROADMAP's
// bit-packed SoA rewrite, which squeezes these same fields down to
// their architected widths.

package lint

import (
	"fmt"
	"reflect"
	"sort"
	"strings"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/frontend"
	"repro/internal/prefetch"
	"repro/internal/xrand"
)

// BudgetLine is one backend's storage accounting.
type BudgetLine struct {
	Kind        string `json:"kind"` // "filter" | "generator" | "iprefetch"
	Name        string `json:"name"`
	StateBits   uint64 `json:"state_bits"`
	CounterBits uint64 `json:"counter_bits"`
	// Notes records anything the bit count cannot express: shared
	// references that were skipped, construction errors, maps.
	Notes []string `json:"notes,omitempty"`
}

// BudgetReport measures every registered backend constructed from the
// default configuration. Lines are sorted by kind, then name.
func BudgetReport() []BudgetLine {
	var lines []BudgetLine
	cfg := config.Default()

	for _, kind := range filter.Registry.Kinds() {
		line := BudgetLine{Kind: "filter", Name: kind}
		f, err := newFilterBackend(kind, cfg.Filter)
		if err != nil {
			line.Notes = append(line.Notes, "construction failed: "+err.Error())
		} else {
			measure(f, &line)
		}
		lines = append(lines, line)
	}

	// SDP keeps its per-line state in the L2 proper; the generator is
	// constructed over a default-geometry cache whose storage is not
	// charged to the backend (the shadow fields ride the existing tags).
	l2, l2err := cache.New[cache.L2Line](cfg.L2, xrand.New(cfg.Seed))
	env := prefetch.Env{L2: l2}
	for _, kind := range prefetch.Registry.Kinds() {
		line := BudgetLine{Kind: "generator", Name: kind}
		// WithGenerator installs the backend's default table budgets —
		// the same cell configuration the sweep matrices run.
		pcfg := cfg.WithGenerator(config.PrefetchKind(kind)).Prefetch
		g, err := prefetch.New(config.PrefetchKind(kind), pcfg, env)
		if err == nil && l2err != nil {
			err = l2err
		}
		if err != nil {
			line.Notes = append(line.Notes, "construction failed: "+err.Error())
		} else {
			measure(g, &line)
		}
		lines = append(lines, line)
	}

	for _, kind := range frontend.Registry.Kinds() {
		line := BudgetLine{Kind: "iprefetch", Name: kind}
		fcfg := cfg.WithIPrefetch(config.IPrefetchKind(kind)).Frontend
		ip, err := frontend.New(config.IPrefetchKind(kind), *fcfg)
		if err != nil {
			line.Notes = append(line.Notes, "construction failed: "+err.Error())
		} else {
			measure(ip, &line)
		}
		lines = append(lines, line)
	}

	sort.Slice(lines, func(i, j int) bool {
		if lines[i].Kind != lines[j].Kind {
			return lines[i].Kind < lines[j].Kind
		}
		return lines[i].Name < lines[j].Name
	})
	return lines
}

// newFilterBackend constructs one filter backend. The static filter's
// registry constructor refuses to run without a profile, so the report
// freezes an empty profile — the structure is the budget story, and an
// empty block set is exactly its hardware-relevant minimum.
func newFilterBackend(kind string, cfg config.FilterConfig) (core.Filter, error) {
	if kind == string(config.FilterStatic) {
		return core.NewProfileCollector("pa", core.PAKey).Freeze(0.5), nil
	}
	cfg.Kind = config.FilterKind(kind)
	return filter.New(cfg)
}

// measure walks one constructed backend.
func measure(backend any, line *BudgetLine) {
	v := reflect.ValueOf(backend)
	seen := map[uintptr]bool{}
	w := &budgetWalker{seen: seen}
	w.value(v, false, line)
	sort.Strings(line.Notes)
	line.Notes = dedupStrings(line.Notes)
}

type budgetWalker struct {
	seen map[uintptr]bool
}

// value adds v's bits to the line. counter is true once the walk has
// passed through an exported field: everything below an exported field
// is counter storage, everything else is state.
func (w *budgetWalker) value(v reflect.Value, counter bool, line *BudgetLine) {
	add := func(bits uint64) {
		if counter {
			line.CounterBits += bits
		} else {
			line.StateBits += bits
		}
	}
	switch v.Kind() {
	case reflect.Bool:
		add(1)
	case reflect.Int8, reflect.Uint8:
		add(8)
	case reflect.Int16, reflect.Uint16:
		add(16)
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		add(32)
	case reflect.Int64, reflect.Uint64, reflect.Int, reflect.Uint, reflect.Uintptr, reflect.Float64:
		add(64)
	case reflect.String:
		add(uint64(v.Len()) * 8)
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			w.value(v.Index(i), counter, line)
		}
	case reflect.Map:
		line.Notes = append(line.Notes,
			fmt.Sprintf("map state (%d entries at construction) — not a fixed budget", v.Len()))
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		if shared, note := sharedReference(v.Type().Elem()); shared {
			line.Notes = append(line.Notes, note)
			return
		}
		if w.seen[v.Pointer()] {
			return
		}
		w.seen[v.Pointer()] = true
		w.value(v.Elem(), counter, line)
	case reflect.Interface:
		if !v.IsNil() {
			w.value(v.Elem(), counter, line)
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			f := t.Field(i)
			w.value(v.Field(i), counter || f.PkgPath == "", line)
		}
	case reflect.Func, reflect.Chan:
		// A key function or callback is wiring, not storage.
	}
}

// sharedReference identifies pointer targets that are references into
// shared machinery rather than backend-owned storage.
func sharedReference(t reflect.Type) (bool, string) {
	path := t.PkgPath()
	switch {
	case strings.HasSuffix(path, "internal/cache"):
		return true, "holds a reference to the shared " + t.Name() + " (state rides its line metadata, not the backend)"
	case strings.HasSuffix(path, "internal/xrand"):
		return true, "holds a reference to the run's RNG"
	}
	return false, ""
}

// FormatBudget renders the report in the aligned text form `pflint
// -budget` prints and docs/LINTING.md embeds.
func FormatBudget(lines []BudgetLine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-12s %12s %14s  %s\n", "KIND", "BACKEND", "STATE BITS", "COUNTER BITS", "NOTES")
	for _, l := range lines {
		fmt.Fprintf(&b, "%-10s %-12s %12d %14d  %s\n",
			l.Kind, l.Name, l.StateBits, l.CounterBits, strings.Join(l.Notes, "; "))
	}
	return b.String()
}

func dedupStrings(in []string) []string {
	out := in[:0]
	var prev string
	for i, s := range in {
		if i == 0 || s != prev {
			out = append(out, s)
		}
		prev = s
	}
	return out
}
