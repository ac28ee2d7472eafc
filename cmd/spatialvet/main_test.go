package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spatialrepart/internal/analysis"
)

// capture runs fn with a temp file and returns what was written to it.
func capture(t *testing.T, fn func(f *os.File)) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fn(f)
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRepositoryIsClean is the acceptance gate: the suite must exit 0
// over the repository's own tree — every real finding fixed or
// suppressed with a justification.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	var stdout, stderr string
	var code int
	stdout = capture(t, func(out *os.File) {
		stderr = capture(t, func(errf *os.File) {
			code = run([]string{"./..."}, out, errf)
		})
	})
	if code != 0 {
		t.Errorf("spatialvet ./... = exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

func TestListFlag(t *testing.T) {
	var code int
	stdout := capture(t, func(out *os.File) {
		stderr := capture(t, func(errf *os.File) {
			code = run([]string{"-list"}, out, errf)
		})
		_ = stderr
	})
	if code != 0 {
		t.Fatalf("spatialvet -list = exit %d, want 0", code)
	}
	for _, a := range analysis.Analyzers() {
		name := a.Name
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, stdout)
		}
	}
}

func TestBadFlag(t *testing.T) {
	var code int
	capture(t, func(out *os.File) {
		capture(t, func(errf *os.File) {
			code = run([]string{"-nosuchflag"}, out, errf)
		})
	})
	if code != 2 {
		t.Errorf("spatialvet -nosuchflag = exit %d, want 2", code)
	}
}

func TestJSONSarifExclusive(t *testing.T) {
	var code int
	capture(t, func(out *os.File) {
		capture(t, func(errf *os.File) {
			code = run([]string{"-json", "-sarif"}, out, errf)
		})
	})
	if code != 2 {
		t.Errorf("spatialvet -json -sarif = exit %d, want 2", code)
	}
}

// runInModule writes files (slash paths) into a fresh temp module,
// chdirs there, and runs spatialvet with args.
func runInModule(t *testing.T, files map[string]string, args ...string) (code int, stdout string) {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	}()
	stdout = capture(t, func(out *os.File) {
		capture(t, func(errf *os.File) {
			code = run(args, out, errf)
		})
	})
	return code, stdout
}

// TestExitCodeTypeError pins exit 2 on a module that fails to
// type-check: load errors and findings must stay distinguishable.
func TestExitCodeTypeError(t *testing.T) {
	code, _ := runInModule(t, map[string]string{
		"main.go": "package main\n\nfunc main() { var x int = \"not an int\"; _ = x }\n",
	})
	if code != 2 {
		t.Errorf("type error = exit %d, want 2", code)
	}
}

// TestExitCodeFindings pins exit 1 when the tree loads cleanly but
// analyzers (here: the directive audit) report findings.
func TestExitCodeFindings(t *testing.T) {
	code, _ := runInModule(t, map[string]string{
		"main.go": "package main\n\n//spatialvet:ignore nosuchanalyzer because\nfunc main() {}\n",
	})
	if code != 1 {
		t.Errorf("finding = exit %d, want 1", code)
	}
}

// TestJSONFindings checks the -json shape on a module with one known
// finding.
func TestJSONFindings(t *testing.T) {
	code, stdout := runInModule(t, map[string]string{
		"main.go": "package main\n\n//spatialvet:ignore nosuchanalyzer because\nfunc main() {}\n",
	}, "-json")
	if code != 1 {
		t.Fatalf("-json with a finding = exit %d, want 1", code)
	}
	var diags []analysis.JSONDiagnostic
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, stdout)
	}
	if len(diags) != 1 || diags[0].Analyzer != "directive" || diags[0].File != "main.go" {
		t.Errorf("unexpected -json findings: %+v", diags)
	}
}

// TestSARIFRepository runs -sarif over the repository itself: the log
// must parse back through encoding/json with rule metadata for every
// analyzer, and — the tree being clean — zero results.
func TestSARIFRepository(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	var code int
	stdout := capture(t, func(out *os.File) {
		capture(t, func(errf *os.File) {
			code = run([]string{"-sarif", "./..."}, out, errf)
		})
	})
	if code != 0 {
		t.Fatalf("spatialvet -sarif ./... = exit %d, want 0\n%s", code, stdout)
	}
	var log analysis.SarifLog
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("-sarif output does not parse: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected log shape: version %q, %d runs", log.Version, len(log.Runs))
	}
	if want := len(analysis.Analyzers()) + 1; len(log.Runs[0].Tool.Driver.Rules) != want {
		t.Errorf("got %d rules, want %d", len(log.Runs[0].Tool.Driver.Rules), want)
	}
	if len(log.Runs[0].Results) != 0 {
		t.Errorf("repository tree should be clean, got %d results", len(log.Runs[0].Results))
	}
}

// TestJSONDeterministic runs -json twice over the repository and
// requires byte-identical output — the same property CI checks.
func TestJSONDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module twice")
	}
	runOnce := func() (int, string) {
		var code int
		stdout := capture(t, func(out *os.File) {
			capture(t, func(errf *os.File) {
				code = run([]string{"-json", "./..."}, out, errf)
			})
		})
		return code, stdout
	}
	c1, o1 := runOnce()
	c2, o2 := runOnce()
	if c1 != c2 || o1 != o2 {
		t.Errorf("two -json runs differ: exit %d vs %d\n--- run 1\n%s\n--- run 2\n%s", c1, c2, o1, o2)
	}
}

// decode parses -json output.
func decode(t *testing.T, stdout string) []analysis.JSONDiagnostic {
	t.Helper()
	var diags []analysis.JSONDiagnostic
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, stdout)
	}
	return diags
}

// underDir keeps the findings in files under the module-relative dir.
func underDir(diags []analysis.JSONDiagnostic, dir string) []analysis.JSONDiagnostic {
	out := []analysis.JSONDiagnostic{}
	for _, d := range diags {
		if strings.HasPrefix(d.File, dir+"/") {
			out = append(out, d)
		}
	}
	return out
}

// TestSubtreeRunSeesWholeModule pins that a package pattern filters the
// findings, not the analysis: the interprocedural analyzers must see
// the whole module's call graph, or a subtree run reports stale
// suppressions and misses cross-package findings.
func TestSubtreeRunSeesWholeModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module twice")
	}
	runJSON := func(pattern string) (int, []analysis.JSONDiagnostic) {
		var code int
		stdout := capture(t, func(out *os.File) {
			capture(t, func(errf *os.File) {
				code = run([]string{"-json", pattern}, out, errf)
			})
		})
		return code, decode(t, stdout)
	}
	code, sub := runJSON("./internal/stream/...")
	if code != 0 {
		t.Errorf("spatialvet ./internal/stream/... = exit %d, want 0: %+v", code, sub)
	}
	_, all := runJSON("./...")
	if want := underDir(all, "internal/stream"); !reflect.DeepEqual(sub, want) {
		t.Errorf("subtree findings %+v, want the full run's findings under internal/stream %+v", sub, want)
	}
}

// TestSubtreeRunCrossPackageFindings runs a subtree of a module whose
// findings depend on code outside it: ctxflow's handler and deadexport's
// main live in other packages.
func TestSubtreeRunCrossPackageFindings(t *testing.T) {
	files := func() map[string]string {
		return map[string]string{
			"main.go": "package main\n\nimport \"tmpmod/internal/lib\"\n\nfunc main() { lib.Used() }\n",
			"internal/server/h.go": "package server\n\nimport (\n\t\"net/http\"\n\n\t\"tmpmod/internal/lib\"\n)\n\n" +
				"func init() { http.HandleFunc(\"/\", handle) }\n\nfunc handle(w http.ResponseWriter, r *http.Request) { lib.Detach() }\n",
			"internal/lib/lib.go": "package lib\n\nimport \"context\"\n\nfunc Used() {}\n\nfunc Unused() {}\n\n" +
				"func Detach() context.Context { return context.Background() }\n",
		}
	}
	code, stdout := runInModule(t, files(), "-json", "./internal/lib/...")
	sub := decode(t, stdout)
	_, stdout = runInModule(t, files(), "-json", "./...")
	if want := underDir(decode(t, stdout), "internal/lib"); code != 1 || !reflect.DeepEqual(sub, want) {
		t.Fatalf("subtree run = exit %d, %+v; want exit 1 and the full run's findings under internal/lib %+v", code, sub, want)
	}
	var got []string
	for _, d := range sub {
		got = append(got, d.Analyzer+" "+d.Message)
	}
	joined := strings.Join(got, "\n")
	for _, want := range []string{"ctxflow context.Background()", "deadexport lib.Unused is reachable"} {
		if !strings.Contains(joined, want) {
			t.Errorf("subtree findings lack %q:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "lib.Used ") {
		t.Errorf("subtree run flags lib.Used, which main calls:\n%s", joined)
	}
}
