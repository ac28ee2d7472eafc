package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The golden tests load one testdata package per analyzer and compare
// the diagnostics against `// want "substring"` comments: every want
// must be matched by a diagnostic on its line, and every diagnostic
// must be claimed by a want. A `// want` comment may carry several
// quoted substrings when one line produces several findings; a
// `/* want ... */` block comment lets a want share its line with a
// directive comment.

func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// loadDir parses and type-checks the single package in dir under the
// given synthetic import path: the testdata packages live outside the
// module's package space.
func loadDir(dir, path string) (*Package, error) {
	fset := token.NewFileSet()
	p, _, err := parseDir(fset, dir, path)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	if err := check(p, newChainImporter(fset)); err != nil {
		return nil, err
	}
	return p, nil
}

func loadTestPkg(t *testing.T, name string) *Package {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loadDir(dir, name)
	if err != nil {
		t.Fatalf("loading testdata package %s: %v", name, err)
	}
	return pkg
}

var wantRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// wantsOf collects the want comments as file:line -> expected message
// substrings.
func wantsOf(t *testing.T, pkg *Package) map[string][]string {
	t.Helper()
	wants := map[string][]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					if rest, ok = strings.CutPrefix(c.Text, "/* want "); !ok {
						continue
					}
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				quoted := wantRE.FindAllString(rest, -1)
				if len(quoted) == 0 {
					t.Fatalf("%s: want comment without a quoted substring: %s", key, c.Text)
				}
				for _, q := range quoted {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want string %s: %v", key, q, err)
					}
					wants[key] = append(wants[key], s)
				}
			}
		}
	}
	return wants
}

func runGolden(t *testing.T, analyzerName string, cfg Config) {
	t.Helper()
	pkg := loadTestPkg(t, analyzerName)
	a := analyzerByName(t, analyzerName)
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{a}, cfg)
	wants := wantsOf(t, pkg)

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := -1
		for i, sub := range wants[key] {
			if strings.Contains(d.Message, sub) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		wants[key] = append(wants[key][:matched], wants[key][matched+1:]...)
		if len(wants[key]) == 0 {
			delete(wants, key)
		}
	}
	for key, subs := range wants {
		for _, sub := range subs {
			t.Errorf("%s: expected a %s diagnostic containing %q, got none", key, analyzerName, sub)
		}
	}
}

func TestMapOrderGolden(t *testing.T)   { runGolden(t, "maporder", Config{}) }
func TestSpanEndGolden(t *testing.T)    { runGolden(t, "spanend", Config{}) }
func TestGlobalRandGolden(t *testing.T) { runGolden(t, "globalrand", Config{}) }
func TestErrDropGolden(t *testing.T)    { runGolden(t, "errdrop", Config{}) }
func TestSyncCloseGolden(t *testing.T)  { runGolden(t, "syncclose", Config{}) }
func TestPanicSiteGolden(t *testing.T)  { runGolden(t, "panicsite", Config{}) }

func TestLockCallGolden(t *testing.T) {
	runGolden(t, "lockcall", Config{HeavyFuncs: []string{"lockcall.heavyCompute"}})
}

func TestFloatEqGolden(t *testing.T) {
	runGolden(t, "floateq", Config{FloatEqPkgs: []string{"floateq"}})
}

func TestGoroLeakGolden(t *testing.T)  { runGolden(t, "goroleak", Config{}) }
func TestAtomicMixGolden(t *testing.T) { runGolden(t, "atomicmix", Config{}) }
func TestLockOrderGolden(t *testing.T) { runGolden(t, "lockorder", Config{}) }

func TestClockDirectGolden(t *testing.T) {
	runGolden(t, "clockdirect", Config{ClockPkgs: []string{"clockdirect"}})
}

func TestDeadExportGolden(t *testing.T) { runGolden(t, "deadexport", Config{}) }

func TestCtxFlowGolden(t *testing.T) {
	runGolden(t, "ctxflow", Config{HandlerPkgs: []string{"ctxflow"}})
}

// TestStaleDirectives checks the stale-suppression audit: a directive
// that suppresses nothing for an analyzer that ran is itself reported;
// a used directive is not; a directive naming an analyzer absent from
// the run is left alone (its usefulness is unknown).
func TestStaleDirectives(t *testing.T) {
	pkg := loadTestPkg(t, "stale")
	a := analyzerByName(t, "panicsite")
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{a}, Config{})

	var stale []Diagnostic
	for _, d := range diags {
		if d.Analyzer != "directive" || !strings.Contains(d.Message, "stale") {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		stale = append(stale, d)
	}
	if len(stale) != 1 {
		t.Fatalf("got %d stale-directive findings, want exactly 1: %v", len(stale), stale)
	}
	if !strings.Contains(stale[0].Message, "stale spatialvet:ignore panicsite") {
		t.Errorf("stale finding names the wrong directive: %s", stale[0])
	}
}

// TestSuppressionDirectives checks the directive semantics end to end:
// justified directives silence the finding (same line or line above),
// while a directive naming an unknown analyzer or missing its reason is
// itself a diagnostic and suppresses nothing.
func TestSuppressionDirectives(t *testing.T) {
	pkg := loadTestPkg(t, "suppress")
	a := analyzerByName(t, "panicsite")
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{a}, Config{})

	var panics, unknown, noReason int
	for _, d := range diags {
		switch {
		case d.Analyzer == "panicsite":
			panics++
		case d.Analyzer == "directive" && strings.Contains(d.Message, "unknown analyzer"):
			unknown++
		case d.Analyzer == "directive" && strings.Contains(d.Message, "needs a reason"):
			noReason++
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	// The two justified suppressions silence their panics; the two
	// misused directives leave theirs flagged.
	if panics != 2 {
		t.Errorf("got %d panicsite findings, want 2 (misused directives must not suppress)", panics)
	}
	if unknown != 1 {
		t.Errorf("got %d unknown-analyzer directive findings, want 1", unknown)
	}
	if noReason != 1 {
		t.Errorf("got %d missing-reason directive findings, want 1", noReason)
	}
}

// TestAnalyzerNamesUnique guards the directive namespace: duplicate or
// empty analyzer names would make suppressions ambiguous.
func TestAnalyzerNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Analyzers() {
		name := a.Name
		if name == "" {
			t.Error("analyzer with empty name")
		}
		if seen[name] {
			t.Errorf("duplicate analyzer name %q", name)
		}
		seen[name] = true
	}
}
