// Package lint is pflint's engine: a stdlib-only static-analysis suite
// that machine-checks the simulator's standing invariants — replay
// determinism in the core packages, allocation discipline on the
// annotated hot paths, the nil-guarded observability-hook pattern,
// config validation coverage, and discarded errors — so the guarantees
// pinned by TestSeedFingerprintPinned rest on CI, not convention.
//
// The suite is built directly on go/parser + go/types driven off
// `go list -json` (see load.go); the module has zero external
// dependencies and the linter keeps it that way.
//
// # Rules and pragmas
//
// Each analyzer reports findings as "file:line:col: rule: message".
// A finding is suppressed by an escape pragma on the same line or the
// line directly above:
//
//	//pflint:allow <rule>[,<rule>...] <reason>
//
// The reason is mandatory; a pragma with no reason, an unknown rule
// name, or one that suppresses nothing is itself a finding, so escapes
// cannot rot silently. Hot-path functions opt in with a
// `//pflint:hotpath` directive in their doc comment. docs/LINTING.md
// documents every rule.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the finding in the canonical file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Analyzer is one self-contained check run against every loaded package.
type Analyzer struct {
	// Name is the analyzer identifier; every rule it reports is
	// "<name>/<check>".
	Name string
	// Doc is a one-line description for `pflint -list`.
	Doc string
	// Rules lists every rule the analyzer can report.
	Rules []string
	// Run reports the analyzer's findings for one package. Suppression
	// (pragmas) is applied by the engine afterwards.
	Run func(p *Package) []Finding
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		determinismAnalyzer(),
		hotpathAnalyzer(),
		hooksAnalyzer(),
		configcovAnalyzer(),
		errcheckAnalyzer(),
		lockflowAnalyzer(),
		ctxflowAnalyzer(),
		hwbudgetAnalyzer(),
	}
}

// Rule names, kept in one place so pragma validation and docs agree.
const (
	RuleDetTime     = "determinism/time"
	RuleDetRand     = "determinism/rand"
	RuleDetEnv      = "determinism/env"
	RuleDetMapRange = "determinism/maprange"

	RuleHotAlloc   = "hotpath/alloc"
	RuleHotAppend  = "hotpath/append"
	RuleHotFmt     = "hotpath/fmt"
	RuleHotIface   = "hotpath/iface"
	RuleHotClosure = "hotpath/closure"

	RuleHooksGuard = "hooks/guard"

	RuleConfigCov = "configcov/unvalidated"

	RuleErrcheck = "errcheck/discard"

	RuleLockBlocking = "lockflow/blocking"
	RuleLockLeak     = "lockflow/leak"

	RuleCtxDrop       = "ctxflow/drop"
	RuleCtxBackground = "ctxflow/background"
	RuleCtxGoroutine  = "ctxflow/goroutine"

	RuleHWMap     = "hwbudget/map"
	RuleHWUnsized = "hwbudget/unsized"
	RuleHWGrowth  = "hwbudget/growth"

	// Engine-level pragma hygiene rules (not suppressible).
	RulePragmaMalformed = "pragma/malformed"
	RulePragmaUnknown   = "pragma/unknown-rule"
	RulePragmaUnused    = "pragma/unused"
)

// knownRules is every rule a pragma may legally name.
var knownRules = map[string]bool{
	RuleDetTime: true, RuleDetRand: true, RuleDetEnv: true, RuleDetMapRange: true,
	RuleHotAlloc: true, RuleHotAppend: true, RuleHotFmt: true, RuleHotIface: true, RuleHotClosure: true,
	RuleHooksGuard:   true,
	RuleConfigCov:    true,
	RuleErrcheck:     true,
	RuleLockBlocking: true, RuleLockLeak: true,
	RuleCtxDrop: true, RuleCtxBackground: true, RuleCtxGoroutine: true,
	RuleHWMap: true, RuleHWUnsized: true, RuleHWGrowth: true,
}

// knownAnalyzers lets a pragma suppress a whole analyzer by name.
var knownAnalyzers = map[string]bool{
	"determinism": true, "hotpath": true, "hooks": true, "configcov": true, "errcheck": true,
	"lockflow": true, "ctxflow": true, "hwbudget": true,
}

// coreNames is the deterministic core: packages whose simulated state
// feeds the pinned fingerprints. Harness packages (sched, experiments,
// server, trace, metrics, report, workload, ...) are deliberately
// absent — they may read clocks and schedule freely, as long as their
// serialized output is sorted (which errcheck/tests cover separately).
// Membership is by import-path base so the lint fixtures under
// testdata/src can stand in for real core packages.
var coreNames = map[string]bool{
	"sim": true, "cpu": true, "cache": true, "hier": true, "filter": true,
	"prefetch": true, "predictor": true, "pbuffer": true, "bus": true,
	"memdram": true, "deadblock": true, "victim": true, "core": true,
	"frontend": true,
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Name       string
	Dir        string
	Fset       *token.FileSet
	Syntax     []*ast.File
	Types      *types.Package
	Info       *types.Info

	pragmas        []*allowPragma
	pragmaFindings []Finding // malformed/unknown-rule, collected at parse time
}

// IsCore reports whether the package belongs to the deterministic core.
func (p *Package) IsCore() bool { return coreNames[path.Base(p.ImportPath)] }

// Position resolves a token.Pos against the package's file set.
func (p *Package) Position(pos token.Pos) token.Position { return p.Fset.Position(pos) }

// TypeOf returns the type of an expression, or nil if unknown.
func (p *Package) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// finding builds a Finding at pos.
func (p *Package) finding(pos token.Pos, rule, format string, args ...any) Finding {
	return Finding{Pos: p.Position(pos), Rule: rule, Msg: fmt.Sprintf(format, args...)}
}

// allowPragma is one parsed //pflint:allow comment.
type allowPragma struct {
	file   string
	line   int
	col    int
	rules  []string
	reason string
	used   bool
}

// parsePragmas indexes every pflint directive in a file and records
// malformed ones as findings.
func (p *Package) parsePragmas(f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, "//pflint:") {
				continue
			}
			pos := p.Position(c.Pos())
			directive := strings.TrimPrefix(text, "//pflint:")
			switch {
			case directive == "hotpath" || strings.HasPrefix(directive, "hotpath "):
				// Handled by hotpathFuncs; nothing to index here.
			case strings.HasPrefix(directive, "allow"):
				rest := strings.TrimPrefix(directive, "allow")
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					p.pragmaFindings = append(p.pragmaFindings, Finding{
						Pos: pos, Rule: RulePragmaMalformed,
						Msg: "allow pragma names no rule; use //pflint:allow <rule> <reason>",
					})
					continue
				}
				rules := strings.Split(fields[0], ",")
				reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
				if reason == "" {
					p.pragmaFindings = append(p.pragmaFindings, Finding{
						Pos: pos, Rule: RulePragmaMalformed,
						Msg: fmt.Sprintf("allow pragma for %s has no reason; every escape must say why", fields[0]),
					})
					continue
				}
				for _, r := range rules {
					if !knownRules[r] && !knownAnalyzers[r] {
						p.pragmaFindings = append(p.pragmaFindings, Finding{
							Pos: pos, Rule: RulePragmaUnknown,
							Msg: fmt.Sprintf("allow pragma names unknown rule %q", r),
						})
					}
				}
				p.pragmas = append(p.pragmas, &allowPragma{
					file: pos.Filename, line: pos.Line, col: pos.Column,
					rules: rules, reason: reason,
				})
			default:
				p.pragmaFindings = append(p.pragmaFindings, Finding{
					Pos: pos, Rule: RulePragmaMalformed,
					Msg: fmt.Sprintf("unknown pflint directive %q (known: allow, hotpath)", "//pflint:"+directive),
				})
			}
		}
	}
}

// suppressed reports whether a pragma on the finding's line (or the line
// directly above) allows it, marking the pragma used.
func (p *Package) suppressed(f Finding) bool {
	hit := false
	for _, pr := range p.pragmas {
		if pr.file != f.Pos.Filename || (pr.line != f.Pos.Line && pr.line != f.Pos.Line-1) {
			continue
		}
		for _, r := range pr.rules {
			if r == f.Rule || r == analyzerOf(f.Rule) {
				pr.used = true
				hit = true
			}
		}
	}
	return hit
}

// analyzerOf returns the analyzer component of a rule name.
func analyzerOf(rule string) string {
	if i := strings.IndexByte(rule, '/'); i >= 0 {
		return rule[:i]
	}
	return rule
}

// hotpathDirective reports whether a function's doc comment carries the
// //pflint:hotpath annotation.
func hotpathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == "//pflint:hotpath" || strings.HasPrefix(c.Text, "//pflint:hotpath ") {
			return true
		}
	}
	return false
}

// HotpathFunctions returns the qualified names of every function in the
// package annotated //pflint:hotpath, e.g. "hier.(*inflightHeap).push".
// The annotation regression test pins the set for the real tree.
func HotpathFunctions(p *Package) []string {
	var out []string
	for _, f := range p.Syntax {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !hotpathDirective(fd) {
				continue
			}
			out = append(out, path.Base(p.ImportPath)+"."+funcName(fd))
		}
	}
	sort.Strings(out)
	return out
}

// funcName renders a method as (*T).name / T.name and a function as name.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}

// Run applies the analyzers to every package, resolves pragmas, and
// returns the surviving findings sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, p := range pkgs {
		var raw []Finding
		for _, a := range analyzers {
			raw = append(raw, a.Run(p)...)
		}
		for _, f := range raw {
			if !p.suppressed(f) {
				out = append(out, f)
			}
		}
		out = append(out, p.pragmaFindings...)
		for _, pr := range p.pragmas {
			if !pr.used {
				out = append(out, Finding{
					Pos:  token.Position{Filename: pr.file, Line: pr.line, Column: pr.col},
					Rule: RulePragmaUnused,
					Msg:  fmt.Sprintf("allow pragma for %s suppresses nothing; remove the stale escape", strings.Join(pr.rules, ",")),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}
