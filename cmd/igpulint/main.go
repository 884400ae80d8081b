// Command igpulint is the repo's one lint driver: it loads and type-checks
// the whole module with go/parser + go/types (stdlib only), runs every
// registered analyzer — the source rules (rawaddr, unitsmix, validatewrap),
// the subsystem-contract rules (ctxflow, spanend, faultpoint,
// lockdiscipline, allochot, metricname, timesource) and the documentation
// rules (exporteddoc, mdlink) — and compares the findings against the
// committed baseline (lint/baseline.json by default).
//
// Drift fails in both directions: a finding absent from the baseline is a
// regression, and a baseline entry no finding matches is a fixed violation
// whose entry must be deleted, so the ratchet only ever tightens. Inline
// suppressions use `//igpulint:ignore <rule> <justification>` on (or
// directly above) the flagged line; a justification is mandatory and an
// unused directive is itself a finding.
//
// Usage:
//
//	igpulint ./...                      # lint the module, text output
//	igpulint -format sarif ./...        # SARIF 2.1.0 (CI artifact upload)
//	igpulint -format json ./...
//	igpulint -rules ctxflow,spanend ./...
//	igpulint -rules exporteddoc,mdlink ./...  # the documentation rules only
//	igpulint -baseline lint/baseline.json ./...
//	igpulint -update-baseline           # rewrite the baseline from current findings
//	igpulint -list                      # print the analyzer catalog
//
// Exit status 1 when new findings, stale baseline entries, or unjustified
// baseline entries are reported.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"igpucomm/internal/analysis"
	"igpucomm/internal/buildinfo"
)

func main() {
	format := flag.String("format", "text", "output format: text, json or sarif")
	baselinePath := flag.String("baseline", "lint/baseline.json", "baseline file (module-relative); missing file means empty baseline")
	updateBaseline := flag.Bool("update-baseline", false, "rewrite the baseline from current findings and exit")
	rules := flag.String("rules", "", "comma-separated analyzer subset (default: all)")
	list := flag.Bool("list", false, "print the analyzer catalog and exit")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get())
		return
	}
	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, sub, err := lintRoot(flag.Arg(0))
	fatalIf(err)

	var only []string
	if *rules != "" {
		only = strings.Split(*rules, ",")
	}
	cfg := analysis.DefaultConfig()
	findings, err := analysis.RunRepo(root, &cfg, only)
	fatalIf(err)
	if sub != "" {
		findings = filterSubtree(findings, sub)
	}

	if *updateBaseline {
		full := filepath.Join(root, filepath.FromSlash(*baselinePath))
		fatalIf(os.MkdirAll(filepath.Dir(full), 0o755))
		fatalIf(analysis.WriteBaseline(full, findings))
		fmt.Fprintf(os.Stderr, "igpulint: wrote %d finding(s) to %s — fill in each entry's \"why\" or fix it\n",
			len(findings), *baselinePath)
		return
	}

	baseline, err := analysis.LoadBaseline(filepath.Join(root, filepath.FromSlash(*baselinePath)))
	fatalIf(err)
	drift := analysis.CompareBaseline(baseline, findings)

	report := drift.New
	switch *format {
	case "text":
		fatalIf(analysis.WriteText(os.Stdout, report))
		for _, e := range drift.Stale {
			fmt.Printf("%s: %s: baseline entry is stale (violation fixed); remove it: %s\n", e.File, e.Rule, e.Msg)
		}
		for _, e := range drift.Unjustified {
			fmt.Printf("%s: %s: baseline entry has no justification; fill in \"why\" or fix it: %s\n", e.File, e.Rule, e.Msg)
		}
	case "json":
		fatalIf(analysis.WriteJSON(os.Stdout, report))
	case "sarif":
		fatalIf(analysis.WriteSARIF(os.Stdout, report))
	default:
		fatalIf(fmt.Errorf("unknown format %q (want text, json or sarif)", *format))
	}

	if !drift.Clean() {
		fmt.Fprintf(os.Stderr, "igpulint: %d new finding(s), %d stale baseline entr(ies), %d unjustified entr(ies)\n",
			len(drift.New), len(drift.Stale), len(drift.Unjustified))
		os.Exit(1)
	}
	if drift.Accepted > 0 {
		fmt.Fprintf(os.Stderr, "igpulint: clean (%d baselined finding(s) accepted)\n", drift.Accepted)
	} else {
		fmt.Fprintln(os.Stderr, "igpulint: clean")
	}
}

// lintRoot resolves the positional path argument ("./...", a directory, or
// empty for the current tree) to the enclosing module root plus the
// requested subtree filter (empty when the whole module is in scope).
func lintRoot(arg string) (root, sub string, err error) {
	path := strings.TrimSuffix(arg, "...")
	path = strings.TrimSuffix(path, "/")
	if path == "" {
		path = "."
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		return "", "", err
	}
	if _, err := os.Stat(abs); err != nil {
		return "", "", fmt.Errorf("lint path: %w", err)
	}
	root = abs
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			root = d
			break
		}
		parent := filepath.Dir(d)
		if parent == d {
			break
		}
		d = parent
	}
	if abs != root {
		rel, err := filepath.Rel(root, abs)
		if err != nil {
			return "", "", err
		}
		sub = filepath.ToSlash(rel)
	}
	return root, sub, nil
}

// filterSubtree keeps findings whose file sits under the module-relative
// subtree.
func filterSubtree(fs []analysis.Finding, sub string) []analysis.Finding {
	kept := fs[:0]
	for _, f := range fs {
		if f.Pos.Filename == sub || strings.HasPrefix(f.Pos.Filename, sub+"/") {
			kept = append(kept, f)
		}
	}
	return kept
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "igpulint:", err)
		os.Exit(1)
	}
}
