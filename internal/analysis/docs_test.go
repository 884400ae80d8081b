package analysis

import "testing"

// lintDocs runs one documentation analyzer over a temp module holding
// files, with the default config.
func lintDocs(t *testing.T, a *Analyzer, files map[string]string) []Finding {
	t.Helper()
	return runOn(t, writeModule(t, files), []*Analyzer{a})
}

func TestExportedDocFlagsUndocumented(t *testing.T) {
	got := lintDocs(t, exportedDocAnalyzer(), map[string]string{
		"internal/engine/x.go": `package engine

// Documented has a doc comment.
func Documented() {}

func Exposed() {}

type Thing struct{}

const Limit = 3

var Knob = 1
`,
	})
	if len(got) != 4 {
		t.Fatalf("want 4 exporteddoc findings (Exposed, Thing, Limit, Knob), got %d: %v", len(got), got)
	}
	for _, f := range got {
		if f.Rule != "exporteddoc" {
			t.Errorf("finding rule = %q, want exporteddoc", f.Rule)
		}
	}
}

func TestExportedDocAcceptsDocumentedAndUnexported(t *testing.T) {
	got := lintDocs(t, exportedDocAnalyzer(), map[string]string{
		"internal/engine/x.go": `package engine

// Do does.
func Do() {}

// Obj is a thing.
type Obj struct{}

// Methods need comments too.
func (Obj) Act() {}

// Sizes of things.
const (
	Small = 1
	Large = 2
)

func internalHelper() {}

type hidden struct{}
`,
	})
	if len(got) != 0 {
		t.Fatalf("documented/unexported code flagged: %v", got)
	}
}

func TestExportedDocFlagsUndocumentedMethod(t *testing.T) {
	got := lintDocs(t, exportedDocAnalyzer(), map[string]string{
		"internal/engine/x.go": `package engine

// Obj is a thing.
type Obj struct{}

func (Obj) Act() {}
`,
	})
	if len(got) != 1 || got[0].Rule != "exporteddoc" {
		t.Fatalf("want 1 method finding, got %v", got)
	}
}

func TestExportedDocSkipsTestFiles(t *testing.T) {
	got := lintDocs(t, exportedDocAnalyzer(), map[string]string{
		"internal/engine/x_test.go": `package engine

func TestHelperExported(t int) {}
`,
		"internal/engine/x.go": `package engine
`,
	})
	if len(got) != 0 {
		t.Fatalf("test file flagged: %v", got)
	}
}

// TestExportedDocScopedToDocPackages pins the rule's scope: DocPackages
// entries match a package directory exactly, so neither an unlisted package
// nor a subpackage of a listed one is checked.
func TestExportedDocScopedToDocPackages(t *testing.T) {
	got := lintDocs(t, exportedDocAnalyzer(), map[string]string{
		"internal/apps/demo/x.go":  "package demo\n\nfunc Exposed() {}\n",
		"internal/engine/sub/x.go": "package sub\n\nfunc Exposed() {}\n",
	})
	if len(got) != 0 {
		t.Fatalf("packages outside DocPackages flagged: %v", got)
	}
}

func TestMarkdownLinksResolve(t *testing.T) {
	got := lintDocs(t, mdLinkAnalyzer(), map[string]string{
		"README.md": `# Title

## Local

[good](docs/GOOD.md) and [broken](docs/MISSING.md) and
[anchored](docs/GOOD.md#section) and [web](https://example.com/x) and
[anchor-only](#local) and ![img](docs/missing.png)
`,
		"docs/GOOD.md": "# Good\n\n## Section\n[up](../README.md)\n",
	})
	if len(got) != 2 {
		t.Fatalf("want 2 mdlink findings (MISSING.md, missing.png), got %d: %v", len(got), got)
	}
	for _, f := range got {
		if f.Rule != "mdlink" {
			t.Errorf("finding rule = %q, want mdlink", f.Rule)
		}
	}
}

// TestMarkdownAnchorsValidate pins the #fragment side of the mdlink rule:
// anchors must match a real heading's GitHub-style slug, in-page or across
// files, with duplicate-heading and code-fence semantics as GitHub renders
// them.
func TestMarkdownAnchorsValidate(t *testing.T) {
	got := lintDocs(t, mdLinkAnalyzer(), map[string]string{
		"README.md": `# My Guide

## Install & Run

## Install & Run

[ok](#install--run) [dup](#install--run-1) [bad](#nope)
[cross](docs/API.md#the-api) [crossbad](docs/API.md#absent)
[notmd](docs/data.txt#frag)
`,
		"docs/API.md":   "# The API\n\n```\n# not a heading, just a shell comment\n```\n",
		"docs/data.txt": "plain\n",
	})
	var msgs []string
	for _, f := range got {
		msgs = append(msgs, f.Msg)
	}
	want := []string{
		`anchor "#nope" does not match any heading in README.md`,
		`anchor "#absent" does not match any heading in API.md`,
		`link "docs/data.txt#frag" carries a #fragment, but docs/data.txt is not a markdown file`,
	}
	if len(got) != len(want) {
		t.Fatalf("want %d findings, got %d: %v", len(want), len(got), msgs)
	}
	for _, w := range want {
		found := false
		for _, m := range msgs {
			if m == w {
				found = true
			}
		}
		if !found {
			t.Errorf("missing finding %q in %v", w, msgs)
		}
	}
}

func TestHeadingSlug(t *testing.T) {
	for in, want := range map[string]string{
		"Install & Run":          "install--run",
		"The `engine` package":   "the-engine-package",
		"A_B c-d":                "a_b-c-d",
		"§13. Static analysis":   "13-static-analysis",
		"CPU/GPU sharing (v2.0)": "cpugpu-sharing-v20",
	} {
		if got := headingSlug(in); got != want {
			t.Errorf("headingSlug(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMarkdownFilesListsDocsTree(t *testing.T) {
	root := writeModule(t, map[string]string{
		"README.md":       "x",
		"DESIGN.md":       "x",
		"docs/A.md":       "x",
		"docs/sub/B.md":   "x",
		"docs/notes.txt":  "x",
		"SNIPPETS.md":     "x", // exemplar code, intentionally out of scope
		"internal/REA.md": "x", // outside the documentation set
	})
	files, err := markdownFiles(root)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"README.md": true, "DESIGN.md": true,
		"docs/A.md": true, "docs/sub/B.md": true,
	}
	if len(files) != len(want) {
		t.Fatalf("files = %v, want exactly %v", files, want)
	}
	for _, f := range files {
		if !want[f] {
			t.Errorf("unexpected file %s", f)
		}
	}
}
