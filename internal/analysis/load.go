package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	Path  string // import path ("spatialrepart/internal/core")
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // non-test files only, build-tag filtered
	Types *types.Package
	Info  *types.Info
}

// Load walks the module rooted at root (the directory containing
// go.mod), parses every package's non-test files, and type-checks them
// in dependency order. Intra-module imports resolve against the freshly
// checked packages; everything else (the standard library) is
// type-checked from source via go/importer — no compiled export data or
// external tooling beyond the go command is required.
//
// Analyzers deliberately never see _test.go files: the invariants the
// suite guards are about library and command code, and tests routinely
// do things (global rand seeding aside, e.g. discarding errors from
// helpers) that are fine there.
func Load(root string) ([]*Package, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	type parsed struct {
		pkg     *Package
		imports []string
	}
	byPath := make(map[string]*parsed)
	var order []string
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		p, imports, err := parseDir(fset, dir, path)
		if err != nil {
			return nil, err
		}
		if p == nil {
			continue // no buildable Go files
		}
		byPath[path] = &parsed{pkg: p, imports: imports}
		order = append(order, path)
	}

	// Topologically sort the module-internal import graph so every
	// package is checked after its intra-module dependencies.
	sorted := make([]string, 0, len(order))
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(string) error
	visit = func(path string) error {
		switch state[path] {
		case 1:
			return fmt.Errorf("analysis: import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		for _, imp := range byPath[path].imports {
			if _, ok := byPath[imp]; ok {
				if err := visit(imp); err != nil {
					return err
				}
			}
		}
		state[path] = 2
		sorted = append(sorted, path)
		return nil
	}
	for _, path := range order {
		if err := visit(path); err != nil {
			return nil, err
		}
	}

	imp := newChainImporter(fset)
	var pkgs []*Package
	for _, path := range sorted {
		p := byPath[path].pkg
		if err := check(p, imp); err != nil {
			return nil, err
		}
		imp.local[path] = p.Types
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// parseDir parses the buildable non-test Go files of one directory.
// Returns (nil, nil, nil) when the directory holds no buildable files.
func parseDir(fset *token.FileSet, dir, path string) (*Package, []string, error) {
	bld, err := build.ImportDir(dir, 0)
	if err != nil {
		if _, noGo := err.(*build.NoGoError); noGo {
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: fset}
	for _, name := range bld.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		p.Files = append(p.Files, f)
	}
	var imports []string
	for _, imp := range bld.Imports {
		imports = append(imports, imp)
	}
	return p, imports, nil
}

// check type-checks a parsed package in place.
func check(p *Package, imp types.Importer) error {
	p.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(p.Path, p.Fset, p.Files, p.Info)
	if err != nil {
		return fmt.Errorf("analysis: type-check %s: %w", p.Path, err)
	}
	p.Types = pkg
	return nil
}

// chainImporter serves module-internal packages from the packages this
// load already checked and defers everything else to the stdlib source
// importer (which type-checks dependencies from source, so the loader
// works without compiled export data).
type chainImporter struct {
	local map[string]*types.Package
	src   types.Importer
}

func newChainImporter(fset *token.FileSet) *chainImporter {
	return &chainImporter{
		local: map[string]*types.Package{},
		src:   importer.ForCompiler(fset, "source", nil),
	}
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.local[path]; ok {
		return p, nil
	}
	return c.src.Import(path)
}

// packageDirs returns every directory under root that may hold a
// package, skipping testdata, hidden directories, and nested modules.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // nested module
			}
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// modulePath reads the module path from root's go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("analysis: %s is not a module root: %w", root, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			if p := strings.TrimSpace(rest); p != "" {
				return strings.Trim(p, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s/go.mod", root)
}
