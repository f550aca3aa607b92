// Package hotalloc implements the hot-path allocation analyzer: no code
// reachable from the pinned demand/prefetch hot-path entry points may
// allocate.
//
// The testing.AllocsPerRun tests in internal/sim pin the access path at zero
// allocations dynamically. Those pins only cover the configurations the
// tests exercise; this analyzer holds the same contract statically, for
// every configuration, at lint time. The entry set is the hot-path surface:
// (*sim.HotPath).Access and (*sim.HotPath).OnInst (the paths those tests drive),
// the batched dispatch spine ((*cpu.Core).StepBatch — the core's only
// timing loop — the runner's window accumulator and sink drain,
// (*prefetch.Sink).Issue/Advance), every
// concrete OnAccess/OnInst hook — and their OnAccessBatch/OnInstBatch batch
// counterparts — the simulator dispatches through the prefetch component
// interfaces, and the memory-system fast paths the access loop drives —
// (*mem.Hierarchy).Access/AccessInto, (*cache.Cache) Lookup/Touch/Fill, and
// the MSHR probe/allocate methods.
//
// From those entries the analyzer walks the program call graph (static
// edges, interface dispatch, closure definition edges) and classifies
// allocation sites in every reachable function:
//
//   - make and new;
//   - append (any append may grow its backing array);
//   - composite literals that escape (&T{...}) and map/slice literals,
//     which allocate their storage;
//   - interface boxing at call boundaries: a non-pointer-shaped concrete
//     value passed where the callee expects an interface;
//   - function literals that capture variables (the closure object);
//   - string <-> []byte/[]rune conversions;
//   - map writes (inserting may grow the table).
//
// Each diagnostic carries the full entry→function call chain, so a report
// names both the allocation and the hot path that reaches it.
//
// Approximations, chosen to over-report on the hot path rather than miss a
// regression: escape analysis is not modeled (a slice literal that the
// compiler stack-allocates is still reported), and every reachable function
// is scanned whole-body (a flow-dead allocation is still reported — dead
// code has no business on the hot path). Deliberate, measured allocations
// (cold setup reached through a hot entry, amortized growth) take a
// justified `//lint:allow hotalloc -- reason`.
//
// Like isolation, the analysis is whole-program: under the single-package
// `go vet -vettool` harness only intra-package edges exist, so cmd/divlint's
// pattern mode (`make lint`) is the authoritative gate.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"divlab/internal/analysis"
	"divlab/internal/analysis/callgraph"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "reports allocation sites reachable from the pinned hot-path entry points",
	Run:  run,
}

const prefetchPath = "divlab/internal/prefetch"

// entryFuncs are the pinned hot-path entries by FullName: the HotPath
// harness methods benchmarks drive, the batched dispatch spine (the core's
// step loop, the runner-side window accumulator and sink drain, the
// Sink's per-request collection methods), and the memory-system fast paths
// they exercise. Listing the fast paths explicitly (rather than relying on
// their reachability from HotPath) keeps them covered even if an
// intermediate edge is missed.
var entryFuncs = []string{
	"(*divlab/internal/sim.HotPath).Access",
	"(*divlab/internal/sim.HotPath).OnInst",
	"(*divlab/internal/sim.runner).OnInstWindow",
	"(*divlab/internal/sim.runner).FlushSink",
	"(*divlab/internal/cpu.Core).StepBatch",
	"(*divlab/internal/prefetch.Sink).Issue",
	"(*divlab/internal/prefetch.Sink).Advance",
	"(*divlab/internal/mem.Hierarchy).Access",
	"(*divlab/internal/mem.Hierarchy).AccessInto",
	"(*divlab/internal/cache.Cache).Lookup",
	"(*divlab/internal/cache.Cache).Touch",
	"(*divlab/internal/cache.Cache).Fill",
	"(*divlab/internal/cache.MSHR).Pending",
	"(*divlab/internal/cache.MSHR).PendingOrNextFree",
	"(*divlab/internal/cache.MSHR).Allocate",
	"(*divlab/internal/cache.MSHR).NextFree",
}

// hookMethods maps hook method names to the prefetch interface whose
// implementers the simulator dispatches them through (the same hook surface
// isolation guards). The batch hooks carry whole dispatch windows, so an
// allocation there repeats per window rather than per event — still a
// hot-path regression, just a slightly cheaper one.
var hookMethods = map[string]string{
	"OnAccess":      "Component",
	"OnInst":        "InstObserver",
	"OnAccessBatch": "BatchComponent",
	"OnInstBatch":   "BatchInstObserver",
}

type reachFact struct {
	reached map[*callgraph.Node]bool
	from    map[*callgraph.Node]*callgraph.Node
}

func run(pass *analysis.Pass) (interface{}, error) {
	prog := pass.Program
	rf := prog.Fact("hotalloc.reach", func() interface{} {
		g := prog.Callgraph()
		reached, from := g.Reachable(entries(prog, g))
		return &reachFact{reached: reached, from: from}
	}).(*reachFact)

	g := prog.Callgraph()
	for _, node := range g.Nodes {
		if node.Pkg != pass.Pkg || !rf.reached[node] {
			continue
		}
		for _, s := range allocSites(node) {
			pass.Report(analysis.Diagnostic{
				Pos:     s.pos,
				Message: fmt.Sprintf("%s on hot path %s", s.what, chain(pass.Fset, rf, node)),
			})
		}
	}
	return nil, nil
}

// chain renders the full entry→function call chain.
func chain(fset *token.FileSet, rf *reachFact, node *callgraph.Node) string {
	path := callgraph.PathFrom(rf.from, node)
	if len(path) == 0 {
		return node.Name(fset)
	}
	names := make([]string, len(path))
	for i, n := range path {
		names[i] = n.Name(fset)
	}
	return strings.Join(names, " -> ")
}

// entries collects the hot-path entry nodes in deterministic order: the
// pinned function list first, then hook-method implementations in graph
// order.
func entries(prog *analysis.Program, g *callgraph.Graph) []*callgraph.Node {
	byName := map[string]*callgraph.Node{}
	for _, n := range g.Nodes {
		if n.Fn != nil {
			byName[n.Fn.FullName()] = n
		}
	}
	var out []*callgraph.Node
	for _, name := range entryFuncs {
		if n := byName[name]; n != nil {
			out = append(out, n)
		}
	}
	for _, method := range []string{"OnAccess", "OnInst", "OnAccessBatch", "OnInstBatch"} {
		iface := prog.LookupInterface(prefetchPath, hookMethods[method])
		if iface == nil {
			continue
		}
		for _, n := range g.Nodes {
			if n.Fn == nil || n.Fn.Name() != method {
				continue
			}
			sig, ok := n.Fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				continue
			}
			rt := sig.Recv().Type()
			if types.Implements(rt, iface) || types.Implements(types.NewPointer(rt), iface) {
				out = append(out, n)
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Allocation-site classification.

type site struct {
	pos  token.Pos
	what string
}

// allocSites scans one function body for allocation sites. Nested function
// literals are their own call-graph nodes (reachable through definition
// edges) and are not descended into — except to decide whether the literal
// itself captures variables, which makes its creation an allocation.
func allocSites(node *callgraph.Node) []site {
	if node.Body == nil {
		return nil
	}
	info := node.Info
	var out []site
	report := func(pos token.Pos, format string, args ...interface{}) {
		out = append(out, site{pos: pos, what: fmt.Sprintf(format, args...)})
	}
	ast.Inspect(node.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n == node.Lit {
				return true // this node *is* the literal; scan its body
			}
			if v := capturedVar(info, n); v != nil {
				report(n.Pos(), "closure capturing %q allocates", v.Name())
			}
			return false
		case *ast.CallExpr:
			checkCall(info, n, report)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(lit.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			checkCompositeLit(info, n, report)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkMapWrite(info, lhs, report)
			}
		case *ast.IncDecStmt:
			checkMapWrite(info, n.X, report)
		}
		return true
	})
	return out
}

// checkCall classifies allocating builtins, string conversions and interface
// boxing at one call site.
func checkCall(info *types.Info, call *ast.CallExpr, report func(token.Pos, string, ...interface{})) {
	// Allocating builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := objOf(info, id).(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				report(call.Pos(), "make allocates")
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				report(call.Pos(), "append may grow its backing array")
			}
			return
		}
	}
	// Type conversions: string <-> []byte/[]rune copy their contents.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, info.TypeOf(call.Args[0])
		if from != nil {
			if isString(to) && isByteOrRuneSlice(from) {
				report(call.Pos(), "string conversion copies the slice")
			}
			if isByteOrRuneSlice(to) && isString(from) {
				report(call.Pos(), "byte/rune slice conversion copies the string")
			}
		}
		return
	}
	// Interface boxing: a non-pointer-shaped concrete argument passed where
	// the callee takes an interface is wrapped in a heap-allocated box.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || call.Ellipsis != token.NoPos {
		return // spreading an existing slice boxes nothing new
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || !types.IsInterface(pt) || types.IsInterface(at) {
			continue
		}
		if isUntypedNil(at) || pointerShaped(at) {
			continue
		}
		report(arg.Pos(), "interface boxing of %s argument", at.String())
	}
}

// checkCompositeLit reports literals whose construction always allocates
// off-stack storage: maps (the table) and slices (the backing array). Struct
// and array values build in place; their escapes are caught at the &-site.
func checkCompositeLit(info *types.Info, lit *ast.CompositeLit, report func(token.Pos, string, ...interface{})) {
	t := info.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		report(lit.Pos(), "map literal allocates")
	case *types.Slice:
		report(lit.Pos(), "slice literal allocates its backing array")
	}
}

// checkMapWrite reports assignments through a map index: inserting may grow
// the table (and always hashes).
func checkMapWrite(info *types.Info, lhs ast.Expr, report func(token.Pos, string, ...interface{})) {
	idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	if t := info.TypeOf(idx.X); t != nil {
		if _, isMap := t.Underlying().(*types.Map); isMap {
			report(lhs.Pos(), "map write may allocate")
		}
	}
}

// capturedVar returns a variable the literal captures from its enclosing
// function — a non-field, non-package-level variable declared outside the
// literal's extent — or nil for a capture-free (statically allocated)
// literal.
func capturedVar(info *types.Info, lit *ast.FuncLit) *types.Var {
	var captured *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || pkgLevel(v) {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = v
			return false
		}
		return true
	})
	return captured
}

// ---------------------------------------------------------------------------
// Type plumbing.

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

func pkgLevel(v *types.Var) bool {
	if v == nil || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// pointerShaped reports whether values of t fit an interface's data word
// without boxing: pointers, channels, maps, functions and unsafe pointers.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}
