package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named rule over the type-checked module. A rule implements
// Run (called once per package) or RunModule (called once with the whole
// module, for cross-package invariants like the fault-point catalog), or
// both.
type Analyzer struct {
	// Name is the rule identifier findings carry ("ctxflow", "spanend"...).
	Name string
	// Doc is the one-line invariant statement `igpulint -list` prints.
	Doc string
	// Run, when non-nil, analyzes one package.
	Run func(*Pass) []Finding
	// RunModule, when non-nil, analyzes the whole module at once.
	RunModule func(*ModulePass) []Finding
}

// Pass is the per-package unit of work handed to an Analyzer's Run: one
// package of the loaded module plus the shared config.
type Pass struct {
	// Fset is the module's shared FileSet.
	Fset *token.FileSet
	// Pkg is the package under analysis.
	Pkg *Package
	// Module is the whole loaded module (for cross-package lookups).
	Module *Module
	// Config is the run's rule configuration.
	Config *Config
}

// TypeOf returns the static type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Pkg.Info == nil {
		return nil
	}
	return p.Pkg.Info.Types[e].Type
}

// ObjectOf resolves an identifier to its object (use or definition).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if p.Pkg.Info == nil {
		return nil
	}
	if o := p.Pkg.Info.Uses[id]; o != nil {
		return o
	}
	return p.Pkg.Info.Defs[id]
}

// Position resolves a token.Pos against the module FileSet.
func (p *Pass) Position(pos token.Pos) token.Position { return p.Fset.Position(pos) }

// ModulePass is the whole-module unit of work handed to RunModule.
type ModulePass struct {
	// Module is the loaded module.
	Module *Module
	// Config is the run's rule configuration.
	Config *Config
}

// Passes enumerates a per-package Pass for every module package.
func (mp *ModulePass) Passes() []*Pass {
	out := make([]*Pass, 0, len(mp.Module.Packages))
	for _, pkg := range mp.Module.Packages {
		out = append(out, &Pass{Fset: mp.Module.Fset, Pkg: pkg, Module: mp.Module, Config: mp.Config})
	}
	return out
}

// inDirs reports whether a module-relative package dir sits at or under any
// of the given slash-form prefixes.
func inDirs(dir string, prefixes []string) bool {
	for _, p := range prefixes {
		if dir == p || strings.HasPrefix(dir, p+"/") {
			return true
		}
	}
	return false
}

// Analyzers returns the full analyzer set in presentation order: the
// syntactic rules, the type-aware rules, then the documentation rules.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		rawAddrAnalyzer(),
		unitsMixAnalyzer(),
		validateWrapAnalyzer(),
		ctxFlowAnalyzer(),
		spanEndAnalyzer(),
		faultPointAnalyzer(),
		lockDisciplineAnalyzer(),
		allocHotAnalyzer(),
		metricNameAnalyzer(),
		timeSourceAnalyzer(),
		exportedDocAnalyzer(),
		mdLinkAnalyzer(),
	}
}

// AnalyzerNames lists the names of the full analyzer set.
func AnalyzerNames() []string {
	all := Analyzers()
	out := make([]string, len(all))
	for i, a := range all {
		out[i] = a.Name
	}
	return out
}

// RunAnalyzers loads nothing: it applies the given analyzers to an
// already-loaded module, applies //igpulint:ignore suppressions, rewrites
// positions module-relative, and returns findings sorted by position.
func RunAnalyzers(m *Module, analyzers []*Analyzer, cfg *Config) []Finding {
	var out []Finding
	mp := &ModulePass{Module: m, Config: cfg}
	for _, a := range analyzers {
		if a.Run != nil {
			for _, pass := range mp.Passes() {
				out = append(out, a.Run(pass)...)
			}
		}
		if a.RunModule != nil {
			out = append(out, a.RunModule(mp)...)
		}
	}
	out = relativizeFindings(m.Root, out)
	out = applySuppressions(m, analyzers, out)
	sortFindings(out)
	return out
}

// RunRepo is the one-call entry the drivers use: load the module rooted at
// root, run every analyzer (or just the named ones), and return the
// surviving findings. Type-check failures come back as findings under the
// pseudo-rule "typecheck" so a broken tree is visible, not silently clean.
func RunRepo(root string, cfg *Config, only []string) ([]Finding, error) {
	m, err := LoadModule(root)
	if err != nil {
		return nil, err
	}
	analyzers := Analyzers()
	if len(only) > 0 {
		want := map[string]bool{}
		for _, n := range only {
			want[n] = true
		}
		kept := analyzers[:0]
		for _, a := range analyzers {
			if want[a.Name] {
				kept = append(kept, a)
				delete(want, a.Name)
			}
		}
		for n := range want {
			return nil, fmt.Errorf("analysis: unknown rule %q (have %s)",
				n, strings.Join(AnalyzerNames(), ", "))
		}
		analyzers = kept
	}
	findings := RunAnalyzers(m, analyzers, cfg)
	for _, pkg := range m.Packages {
		for _, terr := range pkg.TypeErrors {
			findings = append(findings, Finding{
				Pos:  token.Position{Filename: pkg.Dir},
				Rule: "typecheck",
				Msg:  terr.Error(),
			})
		}
	}
	sortFindings(findings)
	return findings, nil
}

// relativizeFindings rewrites absolute finding filenames module-relative
// (slash form), the coordinate system the baseline file uses so it stays
// stable across checkouts.
func relativizeFindings(root string, fs []Finding) []Finding {
	prefix := root + "/"
	for i := range fs {
		name := strings.ReplaceAll(fs[i].Pos.Filename, "\\", "/")
		if rest, ok := strings.CutPrefix(name, strings.ReplaceAll(prefix, "\\", "/")); ok {
			fs[i].Pos.Filename = rest
		}
	}
	return fs
}

// ignoreDirective is the inline suppression marker. A comment of the form
//
//	//igpulint:ignore <rule> <justification>
//
// on the flagged line, or alone on the line above it, suppresses that rule
// there. The justification is mandatory: a bare ignore is itself a finding.
const ignoreDirective = "//igpulint:ignore"

// suppression is one parsed ignore directive.
type suppression struct {
	rule   string
	line   int
	hasWhy bool
	used   bool
	pos    token.Position
}

// applySuppressions honors //igpulint:ignore directives and reports
// malformed (no justification) or unused ones as "igpulint" findings, so
// suppressions can never rot silently. A directive for a known rule that is
// not among the run's analyzers (an -rules subset) had nothing to suppress,
// so it is not reported as unused.
func applySuppressions(m *Module, analyzers []*Analyzer, fs []Finding) []Finding {
	notRun := map[string]bool{}
	for _, name := range AnalyzerNames() {
		notRun[name] = true
	}
	for _, a := range analyzers {
		delete(notRun, a.Name)
	}

	// file (module-relative) -> line -> suppressions on that line
	byFile := map[string]map[int][]*suppression{}
	var all []*suppression
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignoreDirective) {
						continue
					}
					rest := strings.TrimPrefix(c.Text, ignoreDirective)
					fields := strings.Fields(rest)
					pos := m.Fset.Position(c.Pos())
					rel := pos
					if r, ok := strings.CutPrefix(strings.ReplaceAll(pos.Filename, "\\", "/"),
						strings.ReplaceAll(m.Root, "\\", "/")+"/"); ok {
						rel.Filename = r
					}
					s := &suppression{line: pos.Line, pos: rel}
					if len(fields) > 0 {
						s.rule = fields[0]
					}
					s.hasWhy = len(fields) > 1
					if byFile[rel.Filename] == nil {
						byFile[rel.Filename] = map[int][]*suppression{}
					}
					byFile[rel.Filename][pos.Line] = append(byFile[rel.Filename][pos.Line], s)
					all = append(all, s)
				}
			}
		}
	}

	kept := fs[:0]
	for _, f := range fs {
		if s := matchSuppression(byFile, f); s != nil && s.hasWhy {
			s.used = true
			continue
		}
		kept = append(kept, f)
	}
	for _, s := range all {
		switch {
		case !s.hasWhy:
			kept = append(kept, Finding{Pos: s.pos, Rule: "igpulint",
				Msg: fmt.Sprintf("ignore directive for %q has no justification", s.rule)})
		case !s.used && !notRun[s.rule]:
			kept = append(kept, Finding{Pos: s.pos, Rule: "igpulint",
				Msg: fmt.Sprintf("ignore directive for %q suppresses nothing; remove it", s.rule)})
		}
	}
	return kept
}

// matchSuppression finds a directive covering the finding: same rule, same
// file, on the finding's line or the line directly above.
func matchSuppression(byFile map[string]map[int][]*suppression, f Finding) *suppression {
	lines := byFile[f.Pos.Filename]
	if lines == nil {
		return nil
	}
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		for _, s := range lines[line] {
			if s.rule == f.Rule {
				return s
			}
		}
	}
	return nil
}

// sortFindings orders findings by position.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}
