package analysis

import (
	"fmt"
	"go/token"
	"slices"
	"strings"
)

// directivePrefix introduces an in-source suppression:
//
//	//spatialvet:ignore <analyzer> <reason>
//
// The directive silences findings of the named analyzer on the
// directive's own line and on the line directly below it (so it can sit
// either trailing the flagged statement or on its own line above it).
// The reason is mandatory: a suppression without a recorded
// justification is exactly the silent invariant erosion the suite
// exists to prevent.
const directivePrefix = "//spatialvet:ignore"

// directive is one parsed suppression.
type directive struct {
	analyzer string
	file     string
	line     int
	pos      token.Position // the directive comment itself, for stale reports
}

// directivesAndMisuses scans a package's comments for suppression
// directives. Malformed directives (unknown analyzer name, missing
// analyzer or reason) are returned as diagnostics from the
// pseudo-analyzer "directive" rather than silently ignored.
func directivesAndMisuses(pkg *Package, analyzers []*Analyzer) ([]directive, []Diagnostic) {
	known := make(map[string]*Analyzer, len(analyzers))
	var knownNames []string
	for _, a := range analyzers {
		known[a.Name] = a
		knownNames = append(knownNames, a.Name)
	}
	var dirs []directive
	var misuses []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					misuses = append(misuses, Diagnostic{
						Pos:      pos,
						Analyzer: "directive",
						Message:  "spatialvet:ignore needs an analyzer name and a reason",
					})
				case known[fields[0]] == nil:
					misuses = append(misuses, Diagnostic{
						Pos:      pos,
						Analyzer: "directive",
						Message: fmt.Sprintf("spatialvet:ignore names unknown analyzer %q; known: %s",
							fields[0], strings.Join(knownNames, ", ")),
					})
				case len(fields) == 1:
					misuses = append(misuses, Diagnostic{
						Pos:      pos,
						Analyzer: "directive",
						Message:  fmt.Sprintf("spatialvet:ignore %s needs a reason", fields[0]),
					})
				case len(known[fields[0]].Categories) > 0 && !slices.Contains(known[fields[0]].Categories, fields[1]):
					misuses = append(misuses, Diagnostic{
						Pos:      pos,
						Analyzer: "directive",
						Message: fmt.Sprintf("spatialvet:ignore %s reason must start with a category: one of %s",
							fields[0], strings.Join(known[fields[0]].Categories, ", ")),
					})
				default:
					dirs = append(dirs, directive{analyzer: fields[0], file: pos.Filename, line: pos.Line, pos: pos})
				}
			}
		}
	}
	return dirs, misuses
}

// suppressionKey identifies one (file, analyzer, line) a directive covers.
type suppressionKey struct {
	file     string
	analyzer string
	line     int
}

// filterSuppressed drops diagnostics covered by a directive. The second
// result marks, by index into dirs, every directive that suppressed at
// least one diagnostic (a diagnostic covered by overlapping directives
// credits all of them) — the input to the stale-suppression audit.
func filterSuppressed(diags []Diagnostic, dirs []directive) ([]Diagnostic, []bool) {
	used := make([]bool, len(dirs))
	if len(dirs) == 0 {
		return diags, used
	}
	covered := make(map[suppressionKey][]int, 2*len(dirs))
	for i, d := range dirs {
		covered[suppressionKey{d.file, d.analyzer, d.line}] = append(covered[suppressionKey{d.file, d.analyzer, d.line}], i)
		covered[suppressionKey{d.file, d.analyzer, d.line + 1}] = append(covered[suppressionKey{d.file, d.analyzer, d.line + 1}], i)
	}
	kept := diags[:0]
	for _, d := range diags {
		if idx := covered[suppressionKey{d.Pos.Filename, d.Analyzer, d.Pos.Line}]; len(idx) > 0 {
			for _, i := range idx {
				used[i] = true
			}
			continue
		}
		kept = append(kept, d)
	}
	return kept, used
}

// staleDirectives reports every directive that suppressed nothing even
// though its analyzer ran: as code moves, a suppression whose finding is
// gone is pure rot — it would silently swallow the NEXT real finding
// that drifts onto its line. Directives naming analyzers outside this
// run are left alone (a partial run proves nothing about them).
func staleDirectives(dirs []directive, used []bool, analyzers []*Analyzer) []Diagnostic {
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var out []Diagnostic
	for i, d := range dirs {
		if used[i] || !ran[d.analyzer] {
			continue
		}
		out = append(out, Diagnostic{
			Pos:      d.pos,
			Analyzer: "directive",
			Message:  fmt.Sprintf("stale spatialvet:ignore %s: it suppresses nothing on this line or the next — remove it", d.analyzer),
		})
	}
	return out
}
