// Package analysis is the repository's custom static-analysis layer
// (DESIGN.md §3.15): a stdlib-only driver (go/parser + go/types +
// go/importer — no golang.org/x/tools dependency) that loads and
// type-checks every package in the module and runs repo-specific
// analyzers guarding the invariants earlier PRs fought for —
// byte-identical output across worker counts, no heavy work under the
// ingestion lock, spans that always end, and numeric code that never
// compares floats for exact equality by accident.
//
// Findings are suppressed with an in-source directive carrying a
// mandatory reason:
//
//	//spatialvet:ignore <analyzer> <reason>
//
// placed on the flagged line or on the line directly above it. A
// directive naming an unknown analyzer, or missing its reason, is
// itself a diagnostic: suppressions must stay honest as analyzers are
// renamed or retired.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Per-package analyzers set Run and are
// invoked once per package; interprocedural analyzers set RunModule and
// are invoked once over the whole load with the shared call graph.
type Analyzer struct {
	Name string // short lower-case identifier used in output and directives
	Doc  string // one-line description of the guarded invariant
	// Categories, when set, lists the justifications a suppression may
	// give: the reason must start with one of them.
	Categories []string
	Run        func(*Pass)
	RunModule  func(*ModulePass)
}

// Config carries the repo-specific knowledge the analyzers need. The
// zero value disables the package-scoped analyzers; use DefaultConfig
// for this repository's settings.
type Config struct {
	// HeavyFuncs lists functions that must never be called while a
	// sync.Mutex/RWMutex is held, as "pkgsuffix.NamePrefix" entries:
	// "internal/core.Repartition" matches every function whose package
	// path ends in internal/core and whose name starts with Repartition.
	HeavyFuncs []string
	// FloatEqPkgs lists package-path suffixes (the numeric kernels) in
	// which float ==/!= comparisons are flagged.
	FloatEqPkgs []string
	// HandlerPkgs lists package-path suffixes whose HTTP-handler-shaped
	// functions (parameters (http.ResponseWriter, *http.Request), or
	// methods named ServeHTTP) are the ctxflow roots: everything
	// reachable from them is a request path that must propagate its
	// context instead of minting context.Background()/TODO().
	HandlerPkgs []string
	// ClockPkgs lists package-path suffixes that inject their time
	// source (server.Clock, stream's now func) for the fake-clock chaos
	// suites; direct time.Now/Sleep/After/... there silently escapes the
	// fake clock and is flagged by clockdirect.
	ClockPkgs []string
	// Facade is the import path of the public facade package. Its
	// exported functions, and the exported methods of every type it
	// declares or re-exports by alias, are deadexport roots.
	Facade string
}

// DefaultConfig returns the configuration spatialvet runs with over
// this repository.
func DefaultConfig() Config {
	return Config{
		HeavyFuncs: []string{
			// The full re-partitioning pipeline and its phase entry
			// points: holding any lock across these was the PR 1
			// stream.Current bug class.
			"internal/core.Repartition",
			"internal/core.BuildField",
			"internal/core.Extract",
			"internal/core.QuadtreeExtract",
			"internal/core.AllocateFeatures",
			"internal/core.IFL",
			"internal/core.Homogeneous",
			"internal/grid.FromRecords",
			"internal/kriging.Fit",
		},
		FloatEqPkgs: []string{
			"internal/core",
			"internal/kriging",
			"internal/mat",
			"internal/regress",
		},
		HandlerPkgs: []string{
			"internal/cluster",
			"internal/server",
		},
		ClockPkgs: []string{
			// server and cluster inject Clock; stream injects its now func.
			// internal/obs is deliberately absent: its fake-clock hook is the
			// ticks channel, and span timestamps are wall-clock by design.
			"internal/cluster",
			"internal/server",
			"internal/stream",
			// wal injects Options.Now for the interval sync policy.
			"internal/wal",
		},
		Facade: "spatialrepart",
	}
}

// Analyzers returns the full suite in a stable order: the eight
// per-function analyzers first, then the five interprocedural/concurrency
// analyzers built for the multi-shard serving path, then deadexport,
// which keeps code that only tests reach out of production files.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerMapOrder,
		analyzerLockCall,
		analyzerSpanEnd,
		analyzerFloatEq,
		analyzerGlobalRand,
		analyzerErrDrop,
		analyzerSyncClose,
		analyzerPanicSite,
		analyzerLockOrder,
		analyzerCtxFlow,
		analyzerClockDirect,
		analyzerGoroLeak,
		analyzerAtomicMix,
		analyzerDeadExport,
	}
}

// Diagnostic is one finding, positioned and attributed to an analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass is the per-(package, analyzer) context handed to Analyzer.Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Cfg      Config

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass is the context handed to an interprocedural analyzer's
// RunModule: every loaded package plus the shared call graph.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package
	Graph    *CallGraph
	Cfg      Config

	diags *[]Diagnostic
}

// ReportfAt records a finding at pos, resolved through pkg's FileSet.
func (p *ModulePass) ReportfAt(pkg *Package, pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzers runs every analyzer — per-package analyzers over each
// package, interprocedural analyzers once over the shared call graph —
// applies the //spatialvet:ignore directives, and returns the surviving
// diagnostics sorted by position. Directive misuse (unknown analyzer
// name, missing reason) and stale directives (a suppression that no
// longer matches any diagnostic of an analyzer that ran) surface as
// diagnostics from the pseudo-analyzer "directive".
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer, cfg Config) []Diagnostic {
	var raw []Diagnostic
	var moduleAnalyzers []*Analyzer
	for _, a := range analyzers {
		if a.RunModule != nil {
			moduleAnalyzers = append(moduleAnalyzers, a)
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Cfg:      cfg,
				diags:    &raw,
			}
			a.Run(pass)
		}
	}
	if len(moduleAnalyzers) > 0 {
		graph := BuildCallGraph(pkgs)
		for _, a := range moduleAnalyzers {
			mp := &ModulePass{Analyzer: a, Pkgs: pkgs, Graph: graph, Cfg: cfg, diags: &raw}
			a.RunModule(mp)
		}
	}

	var dirs []directive
	var diags []Diagnostic
	for _, pkg := range pkgs {
		d, misuses := directivesAndMisuses(pkg, analyzers)
		dirs = append(dirs, d...)
		diags = append(diags, misuses...)
	}
	kept, used := filterSuppressed(raw, dirs)
	diags = append(diags, kept...)
	diags = append(diags, staleDirectives(dirs, used, analyzers)...)

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// pkgPathHasSuffix reports whether pkg path ends with the
// '/'-component-aligned suffix (e.g. "internal/core" matches
// "spatialrepart/internal/core" but not "x/yinternal/core").
func pkgPathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
