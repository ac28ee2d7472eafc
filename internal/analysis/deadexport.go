package analysis

import (
	"go/types"
)

// deadexport keeps production code from being reachable only from
// tests (DESIGN.md §3.19). It reports every declared function or method
// that no production root reaches over static and interface-dispatch
// call edges plus reference edges (a function value taken in reached
// code, such as mux.HandleFunc(p, s.handleView), is reached). The roots:
// main, init and what package-level initializers call or reference; the
// exported functions of the facade (Config.Facade) and the exported
// methods of every type it declares or aliases; and the methods through
// which the standard library calls module types (error, interfaces of
// the imported non-module packages, Is/As/Unwrap).
//
// Only the head of each dead subgraph is reported, so one directive on
// a test-support hook also covers its private helpers. A suppression's
// reason starts with its category: (a) a reference oracle a test or
// fuzz target compares production code against, (b) used by the nested
// perfbench module, which the loader skips, (c) a test-support hook,
// (d) safety code such as the durability flush.
var analyzerDeadExport = &Analyzer{
	Name:       "deadexport",
	Doc:        "function or method that no production root reaches",
	Categories: []string{"(a)", "(b)", "(c)", "(d)"},
	RunModule:  runDeadExport,
}

func runDeadExport(mp *ModulePass) {
	g := mp.Graph
	// within restricts the edges to nodes it holds (nil: all nodes).
	// Calls through function values add no edge: such a value is taken,
	// and so reached, before it can be called.
	edges := func(within map[*FuncNode]bool) func(*FuncNode, func(*FuncNode)) {
		return func(n *FuncNode, visit func(*FuncNode)) {
			for _, cs := range n.calls {
				for _, c := range cs.Callees {
					if !cs.Dynamic && (within == nil || within[c]) {
						visit(c)
					}
				}
			}
			for _, r := range n.refs {
				if within == nil || within[r] {
					visit(r)
				}
			}
		}
	}
	live := make(map[*FuncNode]bool)
	reach(deadexportRoots(mp), live, edges(nil))
	dead := make(map[*FuncNode]bool)
	for _, n := range g.Nodes {
		if !live[n] {
			dead[n] = true
		}
	}
	referenced := make(map[*FuncNode]bool)
	for n := range dead {
		edges(dead)(n, func(m *FuncNode) { referenced[m] = referenced[m] || m != n })
	}

	// Heads are the unreferenced dead nodes, then the smallest ID of each
	// dead cycle no head reaches. A literal sorts after its enclosing
	// declaration, so every head is a declared function.
	covered := make(map[*FuncNode]bool)
	for _, pass := range []func(*FuncNode) bool{
		func(n *FuncNode) bool { return !referenced[n] },
		func(n *FuncNode) bool { return !covered[n] },
	} {
		for _, n := range g.Nodes {
			if dead[n] && !covered[n] && pass(n) {
				reach([]*FuncNode{n}, covered, edges(dead))
				mp.ReportfAt(n.Pkg, n.Obj.Pos(), "%s is reachable from no production root: delete it, move it into a _test.go file, or justify it with a category", shortNodeName(n.ID))
			}
		}
	}
}

// deadexportRoots returns the production roots listed on
// analyzerDeadExport.
func deadexportRoots(mp *ModulePass) []*FuncNode {
	roots := append([]*FuncNode(nil), mp.Graph.initRefs...)
	add := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			roots = append(roots, mp.Graph.byObj[fn.Origin()])
		}
	}
	for _, n := range mp.Graph.Nodes {
		if n.Obj != nil && n.Sig.Recv() == nil && (n.Obj.Name() == "init" || n.Obj.Name() == "main" && n.Pkg.Types.Name() == "main") {
			roots = append(roots, n)
		}
	}
	module := make(map[string]bool, len(mp.Pkgs))
	for _, pkg := range mp.Pkgs {
		module[pkg.Path] = true
	}
	for _, pkg := range mp.Pkgs {
		ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
		for _, imp := range pkg.Types.Imports() {
			if module[imp.Path()] {
				continue
			}
			for _, name := range imp.Scope().Names() {
				tn, ok := imp.Scope().Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
					continue
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if pkg.Path == mp.Cfg.Facade && obj.Exported() {
				if _, isFunc := obj.(*types.Func); isFunc {
					add(obj)
				}
				if _, isType := obj.(*types.TypeName); isType {
					ms := types.NewMethodSet(types.NewPointer(obj.Type()))
					for i := 0; i < ms.Len(); i++ {
						if m := ms.At(i).Obj(); m.Exported() {
							add(m)
						}
					}
				}
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue // Implements is unspecified for uninstantiated generic types
			}
			ptr := types.NewPointer(tn.Type())
			methods := []string{"Is", "As", "Unwrap"}
			for _, it := range ifaces {
				if types.Implements(ptr, it) {
					for i := 0; i < it.NumMethods(); i++ {
						methods = append(methods, it.Method(i).Name())
					}
				}
			}
			for _, m := range methods {
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, tn.Pkg(), m)
				add(obj)
			}
		}
	}
	return roots
}
