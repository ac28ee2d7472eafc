// Command spatialvet runs the repository's custom static-analysis suite
// (internal/analysis, DESIGN.md §3.15) over every package in the module:
//
//	go run ./cmd/spatialvet ./...
//
// It loads and type-checks the module using only the standard library
// (go/parser, go/types, go/importer), builds the module-wide call graph,
// runs the repo-specific analyzers — the per-package passes (maporder,
// lockcall, spanend, floateq, globalrand, errdrop, syncclose,
// panicsite, clockdirect, goroleak, atomicmix) and the interprocedural ones
// (lockorder, ctxflow, deadexport) — and prints one "file:line:col: analyzer:
// message" line per finding. -json emits the findings as a JSON array,
// -sarif as a SARIF 2.1.0 log for code-scanning uploads; both are
// byte-deterministic across runs of the same tree.
//
// The whole module is always analyzed, because the interprocedural
// analyzers need the whole call graph; package patterns such as
// ./internal/stream/... only select which findings are reported.
//
// Exit status: 0 on a clean tree, 1 when findings remain, 2 on usage,
// load, or type-check errors.
//
// Findings are suppressed in source with a justified directive:
//
//	//spatialvet:ignore <analyzer> <reason>
//
// on the flagged line or the line directly above it. Misused
// directives (unknown analyzer, missing reason, a deadexport reason
// without its category) and stale ones are themselves findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"spatialrepart/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("spatialvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	sarifOut := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log on stdout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: spatialvet [-list] [-json|-sarif] [packages]\n\n")
		fmt.Fprintf(stderr, "Analyzes the Go module containing the current directory. Package\n")
		fmt.Fprintf(stderr, "arguments are module-root-relative path patterns (a trailing /... matches\n")
		fmt.Fprintf(stderr, "the subtree) selecting which findings to report; the whole module is\n")
		fmt.Fprintf(stderr, "always analyzed. With no arguments, or with ./..., every finding is reported.\n\n")
		fmt.Fprintf(stderr, "Exit status: 0 on a clean tree, 1 when findings remain, 2 on usage,\n")
		fmt.Fprintf(stderr, "load, or type-check errors.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(stderr, "spatialvet: -json and -sarif are mutually exclusive")
		fs.Usage()
		return 2
	}
	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(stdout, "%-11s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "spatialvet:", err)
		return 2
	}
	pkgs, err := analysis.Load(root)
	if err != nil {
		fmt.Fprintln(stderr, "spatialvet:", err)
		return 2
	}
	// The interprocedural analyzers need the whole module's call graph,
	// so a package pattern filters findings, never what is analyzed.
	match := matcher(root, fs.Args())
	diags := slices.DeleteFunc(analysis.RunAnalyzers(pkgs, analysis.Analyzers(), analysis.DefaultConfig()),
		func(d analysis.Diagnostic) bool { return !match(d.Pos.Filename) })

	switch {
	case *jsonOut:
		if err := writeJSON(stdout, analysis.JSONDiagnostics(diags, relTo(root))); err != nil {
			fmt.Fprintln(stderr, "spatialvet:", err)
			return 2
		}
	case *sarifOut:
		if err := writeJSON(stdout, analysis.SARIF(diags, analysis.Analyzers(), relTo(root))); err != nil {
			fmt.Fprintln(stderr, "spatialvet:", err)
			return 2
		}
	default:
		cwd, err := os.Getwd()
		if err != nil {
			cwd = "" // fall back to absolute paths in the report
		}
		rel := relTo(cwd)
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", rel(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "spatialvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// relTo maps an absolute filename to a root-relative slash path (with
// the module root, the stable URI form -json and -sarif emit); files
// outside root keep their absolute path.
func relTo(root string) func(string) string {
	return func(file string) string {
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
		return file
	}
}

// writeJSON encodes v indented to w with a trailing newline.
func writeJSON(w *os.File, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// matcher reports whether a file lies in a package matching the
// ./-relative patterns. No patterns, or any "./..."/"..." pattern,
// matches everything.
func matcher(root string, patterns []string) func(file string) bool {
	type pattern struct {
		prefix  string // cleaned relative dir ("" = module root)
		subtree bool
	}
	var ps []pattern
	for _, p := range patterns {
		p = filepath.ToSlash(p)
		sub := false
		if rest, ok := strings.CutSuffix(p, "..."); ok {
			sub = true
			p = strings.TrimSuffix(rest, "/")
		}
		p = strings.TrimPrefix(p, "./")
		if p == "." {
			p = ""
		}
		ps = append(ps, pattern{prefix: p, subtree: sub})
	}
	return func(file string) bool {
		if len(ps) == 0 {
			return true
		}
		rel, err := filepath.Rel(root, filepath.Dir(file))
		if err != nil {
			return false
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			rel = ""
		}
		for _, p := range ps {
			if rel == p.prefix || (p.subtree && (p.prefix == "" || strings.HasPrefix(rel, p.prefix+"/"))) {
				return true
			}
		}
		return false
	}
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
