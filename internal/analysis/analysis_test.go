package analysis

import (
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// lintSource writes src as a single file under dir in a temp module and
// runs the rawaddr, unitsmix and validatewrap analyzers over it.
func lintSource(t *testing.T, dir, src string) []Finding {
	t.Helper()
	return lintTree(t, map[string]string{path.Join(dir, "x.go"): src})
}

// lintTree writes files (module-relative path -> content) into a temp module
// and runs the rawaddr, unitsmix and validatewrap analyzers over it with the
// default config. The module-wide rules (faultpoint wants a fault catalog)
// are left out: these fixtures pin the three expression-level rules.
func lintTree(t *testing.T, files map[string]string) []Finding {
	t.Helper()
	return runOn(t, writeModule(t, files),
		[]*Analyzer{rawAddrAnalyzer(), unitsMixAnalyzer(), validateWrapAnalyzer()})
}

// runOn loads the module at root and applies the analyzers with the default
// config, failing the test on type errors.
func runOn(t *testing.T, root string, analyzers []*Analyzer) []Finding {
	t.Helper()
	m, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Packages {
		for _, terr := range p.TypeErrors {
			t.Fatalf("fixture %s: type error: %v", p.Dir, terr)
		}
	}
	cfg := DefaultConfig()
	return RunAnalyzers(m, analyzers, &cfg)
}

// writeModule writes files (module-relative path -> content) under a fresh
// temp root with a go.mod for module "fixture" and returns the root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module fixture\n\ngo 1.22\n"
	for rel, content := range files {
		full := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func kinds(fs []Finding) map[string]int {
	m := map[string]int{}
	for _, f := range fs {
		m[f.Rule]++
	}
	return m
}

func TestRawAddrFlaggedOutsideMemorySystem(t *testing.T) {
	src := `package apps
func f(b struct{ Addr, Size int64 }) int64 { return b.Addr + 64 }
`
	got := lintSource(t, "internal/apps/demo", src)
	if kinds(got)["rawaddr"] != 1 {
		t.Fatalf("want 1 rawaddr finding, got %v", got)
	}
}

func TestRawAddrAllowedInMemorySystem(t *testing.T) {
	src := `package mmu
func f(b struct{ Addr, Size int64 }) int64 { return b.Addr + 64 }
`
	if got := lintSource(t, "internal/mmu", src); len(got) != 0 {
		t.Fatalf("memory system flagged: %v", got)
	}
}

func TestRawAddrIgnoresLayoutAccessor(t *testing.T) {
	src := `package apps
type layout struct{}
func (layout) Addr(string) int64 { return 0 }
func f(lay layout, i int64) int64 { return lay.Addr("frame") + i*4 }
`
	if got := lintSource(t, "internal/apps/demo", src); len(got) != 0 {
		t.Fatalf("Layout accessor flagged: %v", got)
	}
}

func TestUnitsMixFlagged(t *testing.T) {
	src := `package apps
func f(copyTime, dramBytes int64) int64 { return copyTime + dramBytes }
`
	got := lintSource(t, "internal/apps/demo", src)
	if kinds(got)["unitsmix"] != 1 {
		t.Fatalf("want 1 unitsmix finding, got %v", got)
	}
}

func TestUnitsMixAllowsSameDomainAndRates(t *testing.T) {
	src := `package apps
func f(copyTime, kernelTime, dramBytes, copyBytes int64) int64 {
	_ = copyTime + kernelTime          // latency + latency: fine
	_ = dramBytes - copyBytes          // bytes - bytes: fine
	return dramBytes / (copyTime + 1)  // conversion through a rate: fine
}
`
	if got := lintSource(t, "internal/apps/demo", src); len(got) != 0 {
		t.Fatalf("legitimate arithmetic flagged: %v", got)
	}
}

func TestValidateWrapFlagged(t *testing.T) {
	src := `package demo
import "fmt"
type C struct{}
func (C) Validate() error { return fmt.Errorf("bad value %d", 3) }
`
	got := lintSource(t, "internal/demo", src)
	if kinds(got)["validatewrap"] != 1 {
		t.Fatalf("want 1 validatewrap finding, got %v", got)
	}
}

func TestValidateWrapAcceptsPrefixedForms(t *testing.T) {
	src := `package demo
import ( "errors"; "fmt" )
type C struct{}
func (C) Validate() error {
	if false { return errors.New("demo: empty") }
	if false { return fmt.Errorf("demo %s: bad", "x") }
	return fmt.Errorf("demo: bad value %d", 3)
}
func helper() error { return fmt.Errorf("anything goes outside Validate") }
`
	if got := lintSource(t, "internal/demo", src); len(got) != 0 {
		t.Fatalf("prefixed errors flagged: %v", got)
	}
}

func TestTestFilesSkipped(t *testing.T) {
	got := lintTree(t, map[string]string{
		"internal/apps/x_test.go": `package apps
func f(b struct{ Addr int64 }) int64 { return b.Addr + 64 }
`,
	})
	if len(got) != 0 {
		t.Fatalf("test file linted: %v", got)
	}
}

// TestRuleSubsetLeavesOtherDirectivesAlone pins how an -rules subset treats
// ignore directives: a directive for a rule that did not run is not
// "unused", while one naming no known rule still is.
func TestRuleSubsetLeavesOtherDirectivesAlone(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/apps/demo/x.go": `package demo

func f(b struct{ Addr int64 }) int64 {
	//igpulint:ignore rawaddr fixture: justified raw arithmetic
	return b.Addr + 64
}

func g() int {
	//igpulint:ignore unitsmix fixture: nothing to suppress here
	return 1
}

func h() int {
	//igpulint:ignore rawadr fixture: misspelled rule
	return 2
}
`,
	})
	unused := func(fs []Finding) map[string]bool {
		out := map[string]bool{}
		for _, f := range fs {
			if f.Rule != "igpulint" || !strings.Contains(f.Msg, "suppresses nothing") {
				t.Errorf("unexpected finding: %s", f)
			}
			out[f.Msg[strings.Index(f.Msg, `"`):]] = true
		}
		return out
	}
	only := unused(runOn(t, root, []*Analyzer{rawAddrAnalyzer()}))
	if len(only) != 1 || !only[`"rawadr" suppresses nothing; remove it`] {
		t.Errorf("rawaddr only: unused directives %v, want just the misspelled one", only)
	}
	both := unused(runOn(t, root, []*Analyzer{rawAddrAnalyzer(), unitsMixAnalyzer()}))
	if len(both) != 2 || !both[`"unitsmix" suppresses nothing; remove it`] {
		t.Errorf("rawaddr+unitsmix: unused directives %v, want unitsmix and the misspelled one", both)
	}
}

// TestRepositoryIsClean is the gate itself, as igpulint runs it: the repo
// this analyzer ships in must pass every rule — the source rules and the
// documentation rules — against the committed baseline.
func TestRepositoryIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	got, err := RunRepo(root, &cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := LoadBaseline(filepath.Join(root, "lint", "baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	drift := CompareBaseline(baseline, got)
	for _, f := range drift.New {
		t.Errorf("%s", f)
	}
	for _, e := range drift.Stale {
		t.Errorf("%s: %s: stale baseline entry: %s", e.File, e.Rule, e.Msg)
	}
	for _, e := range drift.Unjustified {
		t.Errorf("%s: %s: unjustified baseline entry: %s", e.File, e.Rule, e.Msg)
	}
	if !drift.Clean() {
		t.Fatal("repository is not clean against lint/baseline.json")
	}
}
