// Golden tests for the analyzer suite. Each fixture package under
// testdata/src carries `// want "regexp"` markers: every finding must
// match a marker on its line, and every marker must be matched by a
// finding. The fixtures are invisible to `go build ./...` (go list
// skips testdata for wildcard patterns) but load fine by explicit path,
// so the dirty code never pollutes the real tree.

package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// moduleRoot returns the repository root (the directory holding go.mod).
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root %s has no go.mod: %v", root, err)
	}
	return root
}

// fixtureDirs enumerates the want-marker fixtures. The pragmas fixture
// is excluded: its findings sit on the pragma comments themselves, where
// a same-line marker cannot coexist with the directive (TestPragmaHygiene
// covers it with explicit expectations).
func fixtureDirs(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() && e.Name() != "pragmas" {
			out = append(out, e.Name())
		}
	}
	if len(out) == 0 {
		t.Fatal("no fixture packages under testdata/src")
	}
	return out
}

// expectation is one `// want "re"` marker.
type expectation struct {
	file    string // base name
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantMarker = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// collectWants scans every .go file in dir for want markers.
func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, lineText := range strings.Split(string(data), "\n") {
			for _, m := range wantMarker.FindAllStringSubmatch(lineText, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s/%s:%d: bad want regexp %q: %v", dir, e.Name(), i+1, m[1], err)
				}
				out = append(out, &expectation{file: e.Name(), line: i + 1, re: re})
			}
		}
	}
	return out
}

// TestAnalyzersGolden loads every fixture package and checks the
// produced findings against the want markers, in both directions.
func TestAnalyzersGolden(t *testing.T) {
	root := moduleRoot(t)
	dirs := fixtureDirs(t)
	patterns := make([]string, len(dirs))
	for i, d := range dirs {
		patterns[i] = "./internal/lint/testdata/src/" + d
	}
	pkgs, err := Load(root, patterns...)
	if err != nil {
		t.Fatalf("Load fixtures: %v", err)
	}
	if len(pkgs) != len(dirs) {
		t.Fatalf("loaded %d packages, want %d (%v)", len(pkgs), len(dirs), patterns)
	}
	byName := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byName[filepath.Base(p.Dir)] = p
	}

	for _, dir := range dirs {
		dir := dir
		t.Run(dir, func(t *testing.T) {
			p := byName[dir]
			if p == nil {
				t.Fatalf("fixture %s not loaded", dir)
			}
			wants := collectWants(t, filepath.Join("testdata", "src", dir))
			findings := Run([]*Package{p}, Analyzers())

			for _, f := range findings {
				msg := f.Rule + ": " + f.Msg
				matched := false
				for _, w := range wants {
					if w.matched || w.file != filepath.Base(f.Pos.Filename) || w.line != f.Pos.Line {
						continue
					}
					if w.re.MatchString(msg) {
						w.matched = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected finding %s:%d: %s", filepath.Base(f.Pos.Filename), f.Pos.Line, msg)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.re.String())
				}
			}
		})
	}
}

// TestPragmaHygiene checks the engine-level pragma findings against the
// directives in the pragmas fixture, located by scanning the source so
// the expectations survive edits to the file.
func TestPragmaHygiene(t *testing.T) {
	root := moduleRoot(t)
	pkgs, err := Load(root, "./internal/lint/testdata/src/pragmas")
	if err != nil {
		t.Fatalf("Load pragmas fixture: %v", err)
	}
	findings := Run(pkgs, Analyzers())

	src, err := os.ReadFile(filepath.Join("testdata", "src", "pragmas", "pragmas.go"))
	if err != nil {
		t.Fatal(err)
	}
	type exp struct {
		line int
		rule string
	}
	var expected []exp
	for i, lineText := range strings.Split(string(src), "\n") {
		line := i + 1
		switch text := strings.TrimSpace(lineText); {
		case text == "//pflint:allow":
			expected = append(expected, exp{line, RulePragmaMalformed})
		case text == "//pflint:allow errcheck":
			expected = append(expected, exp{line, RulePragmaMalformed})
		case strings.HasPrefix(text, "//pflint:allow nosuchrule"):
			expected = append(expected, exp{line, RulePragmaUnknown}, exp{line, RulePragmaUnused})
		case strings.HasPrefix(text, "//pflint:allow determinism/time"):
			expected = append(expected, exp{line, RulePragmaUnused})
		case strings.HasPrefix(text, "//pflint:frobnicate"):
			expected = append(expected, exp{line, RulePragmaMalformed})
		}
	}
	if len(expected) != 6 {
		t.Fatalf("fixture scan found %d expectations, want 6; fixture out of sync", len(expected))
	}

	var got []exp
	for _, f := range findings {
		got = append(got, exp{f.Pos.Line, f.Rule})
	}
	used := make([]bool, len(got))
	for _, e := range expected {
		found := false
		for i, g := range got {
			if !used[i] && g == e {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing finding line %d rule %s", e.line, e.rule)
		}
	}
	for i, g := range got {
		if !used[i] {
			t.Errorf("unexpected finding line %d rule %s: %s", g.line, g.rule, findings[i].Msg)
		}
	}
}

// TestRealTreeClean pins the repository itself at zero findings: the CI
// gate `go run ./cmd/pflint ./...` must pass, so the package's own test
// suite proves it too.
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree load in -short mode")
	}
	root := moduleRoot(t)
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages from ./...; loader lost the tree", len(pkgs))
	}
	for _, f := range Run(pkgs, Analyzers()) {
		t.Errorf("real tree finding: %s", f)
	}
}

// TestHotpathAnnotationsPinned pins the //pflint:hotpath set on the real
// tree: the PR-2 optimized paths must stay annotated, so a refactor that
// silently drops an annotation (and with it the allocation discipline)
// fails here.
func TestHotpathAnnotationsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-package load in -short mode")
	}
	root := moduleRoot(t)
	pkgs, err := Load(root,
		"./internal/cpu", "./internal/hier", "./internal/cache",
		"./internal/prefetch", "./internal/filter", "./internal/core",
		"./internal/frontend", "./internal/tracefile", "./internal/workload",
		"./internal/predictor")
	if err != nil {
		t.Fatalf("Load hot-path packages: %v", err)
	}
	annotated := make(map[string]bool)
	for _, p := range pkgs {
		for _, fn := range HotpathFunctions(p) {
			annotated[fn] = true
		}
	}
	required := []string{
		"cpu.(*CPU).slot", "cpu.(*CPU).robFull", "cpu.(*CPU).robEmpty",
		"cpu.(*CPU).idleUntil", "cpu.(*CPU).issue", "hier.(*Hierarchy).NextEvent",
		"cpu.(*feed).next", "tracefile.(*Reader).NextBatch", "workload.(*gen).NextBatch",
		"hier.(*inflightHeap).push", "hier.(*inflightHeap).pop",
		"hier.(*side).submit", "hier.(*side).complete", "hier.(*Hierarchy).observe",
		"cache.(*Cache).find", "cache.(*Cache).Lookup", "cache.(*Cache).Insert",
		"prefetch.(*Queue).Contains", "prefetch.(*Queue).Enqueue", "prefetch.(*Queue).Dequeue",
		"prefetch.pcIndex",
		"prefetch.(*latencyTable).insert", "prefetch.(*latencyTable).take",
		"prefetch.(*Berti).train", "prefetch.(*Berti).bestDelta",
		"prefetch.(*GHB).valid", "prefetch.(*GHB).reconstruct",
		"prefetch.(*GHB).probeIssued", "prefetch.(*GHB).gateDegree",
		"filter.(*Perceptron).Predict", "filter.(*Perceptron).Train",
		"filter.(*Bloom).Predict", "filter.(*Bloom).Train",
		"core.(*TableFilter).Predict", "core.(*TableFilter).Allow", "core.(*TableFilter).Train",
		"frontend.(*FetchUnit).Step", "frontend.(*NextLine).Observe",
		"frontend.(*MANA).index", "frontend.(*MANA).Observe", "frontend.(*MANA).commit",
		"predictor.(*BTB).Lookup", "predictor.(*BTB).Insert", "predictor.(*Unit).Resolve",
	}
	for _, fn := range required {
		if !annotated[fn] {
			t.Errorf("hot-path function %s lost its //pflint:hotpath annotation", fn)
		}
	}
}
