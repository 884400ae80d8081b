package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"unicode"
)

// exportedDocAnalyzer requires a doc comment on every exported top-level
// identifier (func, method, type, const, var) of the contract packages
// (Config.DocPackages, matched exactly, not as prefixes). A doc comment on a
// grouped const/var declaration covers every name in the group.
func exportedDocAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "exporteddoc",
		Doc:  "exported identifiers in the contract packages (DocPackages) carry doc comments",
		Run: func(pass *Pass) []Finding {
			if !slices.Contains(pass.Config.DocPackages, pass.Pkg.Dir) {
				return nil
			}
			var out []Finding
			for _, f := range pass.Pkg.Files {
				out = append(out, lintFileDocs(pass.Fset, f)...)
			}
			return out
		},
	}
}

// lintFileDocs applies the exporteddoc rule to one parsed file.
func lintFileDocs(fset *token.FileSet, f *ast.File) []Finding {
	var out []Finding
	flag := func(pos token.Pos, what, name string) {
		out = append(out, Finding{
			Pos:  fset.Position(pos),
			Rule: "exporteddoc",
			Msg:  fmt.Sprintf("exported %s %s has no doc comment", what, name),
		})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			what := "function"
			if d.Recv != nil {
				what = "method"
			}
			flag(d.Pos(), what, d.Name.Name)
		case *ast.GenDecl:
			switch d.Tok {
			case token.TYPE:
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					if ts.Name.IsExported() && d.Doc == nil && ts.Doc == nil {
						flag(ts.Pos(), "type", ts.Name.Name)
					}
				}
			case token.CONST, token.VAR:
				what := "const"
				if d.Tok == token.VAR {
					what = "var"
				}
				for _, spec := range d.Specs {
					vs := spec.(*ast.ValueSpec)
					// A doc comment on the group covers its members.
					if d.Doc != nil || vs.Doc != nil || vs.Comment != nil {
						continue
					}
					for _, n := range vs.Names {
						if n.IsExported() {
							flag(n.Pos(), what, n.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// mdLinkRE matches inline markdown links and images: [text](target) /
// ![alt](target). Targets with spaces or nested parentheses are out of scope
// — this repo's docs do not use them.
var mdLinkRE = regexp.MustCompile(`!?\[[^\]]*\]\(([^()\s]+)\)`)

// mdLinkAnalyzer verifies that every relative link target in the markdown
// documentation set (markdownFiles) resolves to an existing file or
// directory, and that every #fragment — in-page or on a relative .md target
// — names an actual heading's GitHub-style anchor in the linked file.
// Absolute URLs (with a scheme) and mailto links are skipped. A file that
// cannot be read is itself a finding, so a broken tree is never clean.
func mdLinkAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "mdlink",
		Doc:  "relative links and #anchors in README/DESIGN/EXPERIMENTS/ROADMAP and docs/ resolve",
		RunModule: func(mp *ModulePass) []Finding {
			root := mp.Module.Root
			files, err := markdownFiles(root)
			if err != nil {
				return []Finding{{Pos: token.Position{Filename: root}, Rule: "mdlink", Msg: err.Error()}}
			}
			return checkMarkdownLinks(root, files)
		},
	}
}

// checkMarkdownLinks applies the mdlink rule to the given markdown files
// (paths relative to root).
func checkMarkdownLinks(root string, files []string) []Finding {
	anchors := map[string]map[string]bool{} // file path -> heading slugs
	anchorsOf := func(path string) (map[string]bool, error) {
		if a, ok := anchors[path]; ok {
			return a, nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		a := headingAnchors(string(data))
		anchors[path] = a
		return a, nil
	}

	var out []Finding
	for _, rel := range files {
		full := filepath.Join(root, filepath.FromSlash(rel))
		data, err := os.ReadFile(full)
		if err != nil {
			out = append(out, Finding{Pos: token.Position{Filename: full}, Rule: "mdlink", Msg: err.Error()})
			continue
		}
		lines := strings.Split(string(data), "\n")
		inFence := false
		for i, line := range lines {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if inFence {
				continue
			}
			for _, m := range mdLinkRE.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if skipLinkTarget(target) {
					continue
				}
				flag := func(format string, args ...any) {
					out = append(out, Finding{
						Pos:  token.Position{Filename: full, Line: i + 1, Column: strings.Index(line, m[0]) + 1},
						Rule: "mdlink",
						Msg:  fmt.Sprintf(format, args...),
					})
				}
				path, fragment := target, ""
				if j := strings.Index(path, "#"); j >= 0 {
					path, fragment = path[:j], path[j+1:]
				}
				if j := strings.Index(path, "?"); j >= 0 {
					path = path[:j]
				}
				resolved := full // in-page anchor
				if path != "" {
					resolved = filepath.Join(filepath.Dir(full), filepath.FromSlash(path))
					if _, err := os.Stat(resolved); err != nil {
						flag("relative link %q does not resolve", target)
						continue
					}
				}
				if fragment == "" {
					continue
				}
				if !strings.HasSuffix(resolved, ".md") {
					flag("link %q carries a #fragment, but %s is not a markdown file", target, path)
					continue
				}
				heads, err := anchorsOf(resolved)
				if err != nil {
					flag("link %q: %v", target, err)
					continue
				}
				if !heads[strings.ToLower(fragment)] {
					flag("anchor %q does not match any heading in %s", "#"+fragment, filepath.Base(resolved))
				}
			}
		}
	}
	return out
}

// headingAnchors extracts the GitHub-style anchor slug of every ATX heading
// in a markdown document. Duplicate headings get -1, -2, ... suffixes, and
// headings inside fenced code blocks are ignored — both as GitHub renders
// them.
func headingAnchors(doc string) map[string]bool {
	out := map[string]bool{}
	seen := map[string]int{}
	inFence := false
	for _, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(trimmed, "#") {
			continue
		}
		text := strings.TrimLeft(trimmed, "#")
		if text == trimmed || (text != "" && text[0] != ' ' && text[0] != '\t') {
			continue // not an ATX heading ("#foo" or more than just hashes)
		}
		slug := headingSlug(strings.TrimSpace(text))
		if n := seen[slug]; n > 0 {
			out[fmt.Sprintf("%s-%d", slug, n)] = true
		} else {
			out[slug] = true
		}
		seen[slug]++
	}
	return out
}

// headingSlug converts heading text to its GitHub anchor: lowercase, spaces
// to hyphens, everything except letters, digits, hyphens and underscores
// dropped (which also strips backticks and other markdown punctuation).
func headingSlug(text string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(text) {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') ||
			(r > 127 && (unicode.IsLetter(r) || unicode.IsDigit(r))):
			b.WriteRune(r)
		}
	}
	return b.String()
}

// skipLinkTarget reports whether a link target is out of scope for the
// relative-link check (absolute URL or mailto; in-page #anchors are checked).
func skipLinkTarget(target string) bool {
	if strings.HasPrefix(target, "#") {
		return false
	}
	u, err := url.Parse(target)
	return err == nil && u.Scheme != ""
}

// markdownFiles lists the documentation set mdlink checks: the top-level
// README/DESIGN/EXPERIMENTS/ROADMAP plus everything under docs/. Paths come
// back relative to root, sorted.
func markdownFiles(root string) ([]string, error) {
	var files []string
	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"} {
		if _, err := os.Stat(filepath.Join(root, name)); err == nil {
			files = append(files, name)
		}
	}
	docs := filepath.Join(root, "docs")
	err := filepath.WalkDir(docs, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".md") {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			files = append(files, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	sort.Strings(files)
	return files, nil
}
