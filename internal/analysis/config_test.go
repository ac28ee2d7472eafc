package analysis

import (
	"go/ast"
	"path/filepath"
	"strings"
	"testing"
)

// TestDefaultConfigResolves loads the real module and fails on a stale
// DefaultConfig entry. A HeavyFuncs prefix that matches no declared
// function silently turns off lockcall's protection for it, and a
// package suffix that matches no package silently narrows the analyzer
// that reads it; renames and deletions make both happen without a
// finding.
func TestDefaultConfigResolves(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()

	for _, entry := range cfg.HeavyFuncs {
		pkgSuffix, prefix, ok := strings.Cut(entry, ".")
		if !ok {
			t.Errorf("HeavyFuncs entry %q is not pkgsuffix.NamePrefix", entry)
			continue
		}
		found := false
		for _, p := range pkgs {
			if !pkgPathHasSuffix(p.Path, pkgSuffix) {
				continue
			}
			for _, f := range p.Files {
				for _, decl := range f.Decls {
					if fd, isFunc := decl.(*ast.FuncDecl); isFunc && strings.HasPrefix(fd.Name.Name, prefix) {
						found = true
					}
				}
			}
		}
		if !found {
			t.Errorf("HeavyFuncs entry %q matches no declared function", entry)
		}
	}

	for _, field := range []struct {
		name     string
		suffixes []string
	}{
		{"FloatEqPkgs", cfg.FloatEqPkgs},
		{"HandlerPkgs", cfg.HandlerPkgs},
		{"ClockPkgs", cfg.ClockPkgs},
		{"Facade", []string{cfg.Facade}},
	} {
		for _, suffix := range field.suffixes {
			found := false
			for _, p := range pkgs {
				found = found || pkgPathHasSuffix(p.Path, suffix)
			}
			if !found {
				t.Errorf("%s entry %q matches no package", field.name, suffix)
			}
		}
	}
}
