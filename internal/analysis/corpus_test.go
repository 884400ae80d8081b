package analysis

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden corpus under testdata/corpus is a self-contained module
// ("fixture") with stub internal/telemetry, internal/faults and
// internal/units packages — isPkgFunc matches import paths by suffix, so
// the stubs stand in for the real packages — plus one firing and one quiet
// shape per analyzer. Expected findings are annotated in the fixtures as
//
//	// want <rule> "<message substring>"
//
// comments on the finding's line (repeatable for multiple findings on one
// line; block-comment form for lines that end in a line comment). In the
// fixture's markdown documentation set (README.md, docs/) the marker sits in
// an HTML comment, <!-- want mdlink "..." -->, on the link's line. The test
// fails on any finding without a marker and any marker without a finding.

// wantRE captures the marker clause; pairRE splits it into (rule, substr)
// expectations; htmlCommentRE finds the comment a markdown marker lives in.
var (
	wantRE        = regexp.MustCompile(`want((?:\s+[a-z]+\s+"[^"]*")+)`)
	pairRE        = regexp.MustCompile(`([a-z]+)\s+"([^"]*)"`)
	htmlCommentRE = regexp.MustCompile(`<!--(.*?)-->`)
)

// wantMarker is one expected finding parsed from a fixture comment.
type wantMarker struct {
	rule   string
	substr string
	used   bool
}

// loadWantMarkers scans every fixture .go and .md file for want markers,
// keyed by module-relative slash path and line.
func loadWantMarkers(t *testing.T, root string) map[string]map[int][]*wantMarker {
	t.Helper()
	out := map[string]map[int][]*wantMarker{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		md := strings.HasSuffix(path, ".md")
		if err != nil || d.IsDir() || !(md || strings.HasSuffix(path, ".go")) {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for i, line := range strings.Split(string(data), "\n") {
			if md {
				c := htmlCommentRE.FindStringSubmatch(line)
				if c == nil {
					continue
				}
				line = c[1]
			}
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, pair := range pairRE.FindAllStringSubmatch(m[1], -1) {
				if out[rel] == nil {
					out[rel] = map[int][]*wantMarker{}
				}
				out[rel][i+1] = append(out[rel][i+1],
					&wantMarker{rule: pair[1], substr: pair[2]})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCorpusGolden runs the full analyzer set over the corpus module and
// matches every finding against the inline want markers, in both
// directions.
func TestCorpusGolden(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Packages {
		for _, terr := range p.TypeErrors {
			t.Errorf("corpus %s: type error: %v", p.Dir, terr)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	cfg := DefaultConfig()
	got := RunAnalyzers(m, Analyzers(), &cfg)
	want := loadWantMarkers(t, root)

	rulesFired := map[string]bool{}
	for _, f := range got {
		rulesFired[f.Rule] = true
		matched := false
		for _, mk := range want[f.Pos.Filename][f.Pos.Line] {
			if !mk.used && mk.rule == f.Rule && strings.Contains(f.Msg, mk.substr) {
				mk.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for file, lines := range want {
		for line, marks := range lines {
			for _, mk := range marks {
				if !mk.used {
					t.Errorf("%s:%d: expected %s finding matching %q, got none",
						file, line, mk.rule, mk.substr)
				}
			}
		}
	}

	// Every analyzer must have a firing fixture, and the suppression
	// machinery must have produced its meta-findings.
	for _, name := range append(AnalyzerNames(), "igpulint") {
		if !rulesFired[name] {
			t.Errorf("no corpus fixture fires rule %q", name)
		}
	}
}
