package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// This file is the interprocedural half of the suite (DESIGN.md §3.19):
// a module-wide call graph built after type-checking, shared by every
// analyzer with a RunModule hook. The graph is deliberately conservative
// — analyses built on it (lockorder, ctxflow) tolerate extra edges but
// are blinded by missing ones:
//
//   - static calls and method calls on concrete receivers resolve to
//     their single target;
//   - calls through an interface method resolve to that method on every
//     named type in the module whose method set satisfies the interface
//     (Class Hierarchy Analysis — no dataflow narrowing);
//   - calls through a function-typed value (field, parameter, variable,
//     call result) resolve to every module function or method whose
//     value is taken somewhere in the module and whose signature matches
//     the call site's (receiver-stripped for method values);
//   - function literals are first-class nodes, named after their
//     enclosing declaration ("pkg.Fn$1" in source order), so a handler
//     closure is as much a root as a declared handler.
//
// Soundness caveats (documented, accepted): reflection, method
// expressions (T.M as a value), and calls into the standard library are
// not traversed — an interface implemented only by a stdlib type, or a
// callback invoked by the runtime, produces no edge. Everything the
// builder iterates is sorted, so two builds of the same tree produce
// byte-identical analyzer output (the engine eats the maporder analyzer's
// own dogfood).

// FuncNode is one function, method, or function literal in the graph.
type FuncNode struct {
	// ID is the node's stable identity: "pkgpath.Name" for functions,
	// "pkgpath.(Recv).Name" for methods, parent ID + "$n" for the n-th
	// function literal (in source order) inside its parent.
	ID  string
	Pkg *Package
	Obj *types.Func  // nil for function literals
	Lit *ast.FuncLit // nil for declared functions
	Sig *types.Signature

	body  *ast.BlockStmt
	calls []*CallSite
	refs  []*FuncNode // values taken in body; see refsIn
}

// Body returns the node's body; nil for bodiless declarations.
func (n *FuncNode) Body() *ast.BlockStmt { return n.body }

// Calls returns the node's call sites in source order.
func (n *FuncNode) Calls() []*CallSite { return n.calls }

// CallSite is one call expression inside a node, with its resolved
// module-internal callees (sorted by ID; empty for calls that only
// target the standard library or builtins). Dynamic marks a call
// through a function-typed value, whose callees are every
// signature-compatible taken function rather than a known target.
type CallSite struct {
	Call    *ast.CallExpr
	Callees []*FuncNode
	Dynamic bool
}

// CallGraph is the module-wide graph.
type CallGraph struct {
	// Nodes is every node, sorted by ID.
	Nodes []*FuncNode

	// initRefs is every module function a package-level declaration
	// calls or references: the work of package initialization.
	initRefs []*FuncNode

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
}

// ReachableFrom returns the set of nodes reachable from roots over call
// edges, including the roots themselves.
func (g *CallGraph) ReachableFrom(roots []*FuncNode) map[*FuncNode]bool {
	seen := make(map[*FuncNode]bool)
	reach(roots, seen, func(n *FuncNode, visit func(*FuncNode)) {
		for _, cs := range n.calls {
			for _, callee := range cs.Callees {
				visit(callee)
			}
		}
	})
	return seen
}

// reach adds to seen every node reachable from roots over the edges
// that next enumerates, roots included.
func reach(roots []*FuncNode, seen map[*FuncNode]bool, next func(n *FuncNode, visit func(*FuncNode))) {
	var stack []*FuncNode
	visit := func(m *FuncNode) {
		if m != nil && !seen[m] {
			seen[m] = true
			stack = append(stack, m)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		next(n, visit)
	}
}

// BuildCallGraph constructs the graph over the given packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		byObj: make(map[*types.Func]*FuncNode),
		byLit: make(map[*ast.FuncLit]*FuncNode),
	}
	b := &graphBuilder{
		graph:      g,
		pkgs:       pkgs,
		taken:      make(map[string][]*FuncNode),
		ifaceCache: make(map[ifaceKey][]*FuncNode),
	}
	// Three ordered sweeps: create every node first (so cross-package
	// static calls resolve), then record references (so dynamic calls
	// resolve), then resolve call sites.
	for _, pkg := range pkgs {
		b.collectNodes(pkg)
	}
	sort.Slice(g.Nodes, func(i, j int) bool { return g.Nodes[i].ID < g.Nodes[j].ID })
	b.collectRefs()
	b.collectNamedTypes()
	for _, n := range g.Nodes {
		b.resolveCalls(n)
	}
	return g
}

type graphBuilder struct {
	graph *CallGraph
	pkgs  []*Package

	// taken maps a receiver-stripped signature string to the module
	// functions whose value is taken somewhere — the conservative callee
	// set for calls through function-typed values.
	taken map[string][]*FuncNode

	// named is every exported-or-not named type in the module, sorted by
	// (package path, name) — the candidate set for interface dispatch.
	named []*types.TypeName

	ifaceCache map[ifaceKey][]*FuncNode
}

type ifaceKey struct {
	iface  *types.Interface
	method string
}

// collectNodes creates a node for every declared function/method and
// every function literal in pkg.
func (b *graphBuilder) collectNodes(pkg *Package) {
	initN := 0
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				// Literals in package-level var initializers hang off a
				// numbered per-declaration pseudo-node parent.
				initN++
				b.collectLitNodes(pkg, fmt.Sprintf("%s.init#%d", pkg.Path, initN), decl)
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			id := funcID(pkg.Path, obj)
			node := &FuncNode{ID: id, Pkg: pkg, Obj: obj, Sig: obj.Type().(*types.Signature), body: fd.Body}
			b.graph.byObj[obj] = node
			b.graph.Nodes = append(b.graph.Nodes, node)
			if fd.Body != nil {
				b.collectLitNodes(pkg, id, fd.Body)
			}
		}
	}
}

// collectLitNodes creates child nodes for every function literal under
// root (in source order), nesting as parentID$1$2...
func (b *graphBuilder) collectLitNodes(pkg *Package, parentID string, root ast.Node) {
	n := 0
	var walk func(node ast.Node, parent string)
	walk = func(node ast.Node, parent string) {
		ast.Inspect(node, func(x ast.Node) bool {
			if x == node {
				return true
			}
			lit, ok := x.(*ast.FuncLit)
			if !ok {
				return true
			}
			n++
			id := fmt.Sprintf("%s$%d", parent, n)
			sig, _ := pkg.Info.Types[lit].Type.(*types.Signature)
			child := &FuncNode{ID: id, Pkg: pkg, Lit: lit, Sig: sig, body: lit.Body}
			b.graph.byLit[lit] = child
			b.graph.Nodes = append(b.graph.Nodes, child)
			walk(lit.Body, id)
			return false // children of this literal were just walked
		})
	}
	walk(root, parentID)
}

// funcID builds the stable node ID for a declared function or method.
func funcID(pkgPath string, obj *types.Func) string {
	sig := obj.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			ptr = "*"
		}
		name := "?"
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name()
		}
		return fmt.Sprintf("%s.(%s%s).%s", pkgPath, ptr, name, obj.Name())
	}
	return pkgPath + "." + obj.Name()
}

// refsIn returns what root references as a value: module functions
// named outside call position (anywhere, with calls) and the function
// literals directly inside it that are not invoked on the spot. A
// literal's body is its own node's business.
func (b *graphBuilder) refsIn(pkg *Package, root ast.Node, calls bool) []*FuncNode {
	callFuns := make(map[ast.Expr]bool)
	if !calls {
		ast.Inspect(root, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				callFuns[ast.Unparen(call.Fun)] = true
			}
			return true
		})
	}
	var out []*FuncNode
	mark := func(e ast.Expr, id *ast.Ident) {
		if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && !callFuns[e] {
			if node := b.graph.byObj[fn.Origin()]; node != nil {
				out = append(out, node)
			}
		}
	}
	// visit never descends into a SelectorExpr's Sel, so a selected
	// name is judged once, as the whole selector.
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if node := b.graph.byLit[x]; node != nil && !callFuns[ast.Expr(x)] {
				out = append(out, node)
			}
			return false
		case *ast.Ident:
			mark(x, x)
		case *ast.SelectorExpr:
			mark(x, x.Sel)
			ast.Inspect(x.X, visit)
			return false
		}
		return true
	}
	ast.Inspect(root, visit)
	return out
}

// collectRefs fills every node's refs and the graph's initRefs, and
// indexes each referenced function by its receiver-stripped signature
// as a candidate target for calls through function values.
func (b *graphBuilder) collectRefs() {
	addTaken := func(refs []*FuncNode) {
		for _, node := range refs {
			if node.Sig == nil {
				continue
			}
			key := strippedSigString(node.Sig)
			if !slices.Contains(b.taken[key], node) {
				b.taken[key] = append(b.taken[key], node)
			}
		}
	}
	for _, n := range b.graph.Nodes {
		if n.body != nil {
			n.refs = b.refsIn(n.Pkg, n.body, false)
			addTaken(n.refs)
		}
	}
	for _, pkg := range b.pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if _, isFunc := decl.(*ast.FuncDecl); !isFunc {
					addTaken(b.refsIn(pkg, decl, false))
					b.graph.initRefs = append(b.graph.initRefs, b.refsIn(pkg, decl, true)...)
				}
			}
		}
	}
	for _, list := range b.taken {
		sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
	}
}

// strippedSigString renders a signature without its receiver, with full
// package paths, so a method value and the function-typed variable it is
// assigned to produce the same key.
func strippedSigString(sig *types.Signature) string {
	if sig.Recv() != nil {
		sig = types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
	}
	return types.TypeString(sig, func(p *types.Package) string { return p.Path() })
}

// collectNamedTypes gathers the module's named (non-interface) types,
// sorted, as interface-dispatch candidates.
func (b *graphBuilder) collectNamedTypes() {
	for _, pkg := range b.pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names() // already sorted by go/types
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
				continue
			}
			b.named = append(b.named, tn)
		}
	}
	sort.Slice(b.named, func(i, j int) bool {
		pi, pj := b.named[i].Pkg().Path(), b.named[j].Pkg().Path()
		if pi != pj {
			return pi < pj
		}
		return b.named[i].Name() < b.named[j].Name()
	})
}

// resolveCalls records node's call sites with resolved callees. Calls
// inside nested function literals belong to the literal's own node.
func (b *graphBuilder) resolveCalls(node *FuncNode) {
	if node.body == nil {
		return
	}
	info := node.Pkg.Info
	ast.Inspect(node.body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion, not a call
		}
		callees, dynamic := b.calleesOf(node.Pkg, call)
		node.calls = append(node.calls, &CallSite{Call: call, Callees: callees, Dynamic: dynamic})
		return true
	})
	sort.SliceStable(node.calls, func(i, j int) bool {
		return node.calls[i].Call.Pos() < node.calls[j].Call.Pos()
	})
}

// calleesOf resolves one call expression to its module-internal targets,
// reporting whether it is a call through a function-typed value.
func (b *graphBuilder) calleesOf(pkg *Package, call *ast.CallExpr) (callees []*FuncNode, dynamic bool) {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[f].(type) {
		case *types.Builtin:
			return nil, false
		case *types.Func:
			return b.staticTarget(obj), false
		}
		// A function-typed variable or parameter: dynamic.
		return b.dynamicTargets(pkg, fun), true
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			fn := sel.Obj().(*types.Func)
			if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
				return b.interfaceTargets(sel.Recv().Underlying().(*types.Interface), fn.Name()), false
			}
			// Concrete method (possibly promoted through embedding): if the
			// receiver's own method set routes through an embedded interface
			// field, the method object belongs to the interface and has no
			// body node; fall back to dispatch on that interface.
			if targets := b.staticTarget(fn); targets != nil {
				return targets, false
			}
			if recvIface, ok := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface); ok {
				return b.interfaceTargets(recvIface, fn.Name()), false
			}
			return nil, false
		}
		if fn, ok := pkg.Info.Uses[f.Sel].(*types.Func); ok {
			// Package-qualified call (other package's function).
			return b.staticTarget(fn), false
		}
		// Function-typed struct field or similar: dynamic.
		return b.dynamicTargets(pkg, fun), true
	case *ast.FuncLit:
		// Immediately invoked literal.
		if n := b.graph.byLit[f]; n != nil {
			return []*FuncNode{n}, false
		}
		return nil, false
	default:
		return b.dynamicTargets(pkg, fun), true
	}
}

// staticTarget returns the single module node for fn, or nil when fn is
// external (standard library) or bodiless.
func (b *graphBuilder) staticTarget(fn *types.Func) []*FuncNode {
	if node := b.graph.byObj[fn.Origin()]; node != nil {
		return []*FuncNode{node}
	}
	return nil
}

// dynamicTargets resolves a call through a function-typed value to every
// address-taken module function with the same signature.
func (b *graphBuilder) dynamicTargets(pkg *Package, fun ast.Expr) []*FuncNode {
	tv, ok := pkg.Info.Types[fun]
	if !ok {
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	return b.taken[strippedSigString(sig)]
}

// interfaceTargets resolves a call to method m through iface to that
// method on every module type implementing iface.
func (b *graphBuilder) interfaceTargets(iface *types.Interface, m string) []*FuncNode {
	key := ifaceKey{iface, m}
	if cached, ok := b.ifaceCache[key]; ok {
		return cached
	}
	var out []*FuncNode
	seen := make(map[*FuncNode]bool)
	for _, tn := range b.named {
		t := tn.Type()
		ptr := types.NewPointer(t)
		if !types.Implements(t, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, tn.Pkg(), m)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if node := b.graph.byObj[fn]; node != nil && !seen[node] {
			seen[node] = true
			out = append(out, node)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	b.ifaceCache[key] = out
	return out
}

// shortNodeName renders a node ID for humans: the last path component of
// the package plus the function name ("stream.(*Repartitioner).recompute").
func shortNodeName(id string) string {
	slash := strings.LastIndexByte(id, '/')
	return id[slash+1:]
}
