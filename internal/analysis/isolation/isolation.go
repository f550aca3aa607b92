// Package isolation implements the run-isolation analyzer: no code reachable
// from a simulation entry point may write package-level mutable state.
//
// The PR 1 worker pool runs simulations concurrently and memoizes results
// under the assumption that a run is a pure function of its inputs; a single
// counter bumped from an OnAccess hook silently breaks both byte-identity
// and the memo cache. This analyzer enforces the invariant statically.
//
// Entry points are the simulation drivers — divlab/internal/sim.RunSingle,
// RunMulti and RunTrace — plus every concrete hook the simulator invokes
// through the component interfaces: methods named OnAccess on types
// implementing prefetch.Component and OnInst on types implementing
// prefetch.InstObserver. (The paper's framing mentions an OnFill hook; this
// tree drives fills through mem.Hierarchy directly, so OnAccess/OnInst are
// the complete hook surface.) From those entries the analyzer walks the
// program call graph — static edges, interface dispatch, and
// literal-definition edges for closures — and inspects every reachable
// function with the per-function CFG, so writes that no path can execute
// (after a return, in a loop that cannot be entered) are not reported.
//
// Reported mutations, in all cases only when flow-reachable:
//
//   - assignment or ++/-- where the left-hand side is rooted at a
//     package-level variable (g = ..., g.f = ..., g[k] = ..., *g = ...);
//   - writes through a local alias of package-level state (p := &counter;
//     *p = ... — tracked flow-insensitively through pointer, slice, map and
//     channel typed locals);
//   - the mutating built-ins delete, clear and copy applied to
//     package-level (or aliased) state;
//   - sends on package-level channels;
//   - taking the address of a package-level variable as a call argument
//     (the callee may store through it);
//   - calling a pointer-receiver method on a package-level variable (the
//     method may mutate it).
//
// Known approximations, chosen to over-report rather than under-report:
// passing a package-level map/slice by value into a call is not flagged
// (reads are indistinguishable from writes at the call site without
// parameter summaries), and a function literal is considered reachable as
// soon as the function defining it is. Use a justified
// `//lint:allow isolation -- reason` for deliberate exceptions such as
// compile-once caches guarded by sync.Once.
//
// Whole-program soundness requires the whole program: under the single
// package `go vet -vettool` harness only intra-package call edges exist, so
// cmd/divlint's pattern mode (`make lint`) is the authoritative gate.
package isolation

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"divlab/internal/analysis"
	"divlab/internal/analysis/callgraph"
	"divlab/internal/analysis/cfg"
)

var Analyzer = &analysis.Analyzer{
	Name: "isolation",
	Doc:  "reports writes to package-level state reachable from simulation entry points",
	Run:  run,
}

const (
	simPath      = "divlab/internal/sim"
	prefetchPath = "divlab/internal/prefetch"
)

// simEntryFuncs are the exported simulation drivers in divlab/internal/sim.
// The *On variants matter doubly now that results persist across processes:
// a global write reachable from them would not just break same-process
// byte-identity, it would poison store records served to future processes.
var simEntryFuncs = []string{"RunSingle", "RunSingleOn", "RunMulti", "RunMultiOn", "RunTrace"}

// hookMethods maps a hook method name to the prefetch interface whose
// implementers the simulator calls it through.
var hookMethods = map[string]string{
	"OnAccess": "Component",
	"OnInst":   "InstObserver",
}

// reachFact is the program-wide entry/reachability fact.
type reachFact struct {
	reached map[*callgraph.Node]bool
	from    map[*callgraph.Node]*callgraph.Node
}

func run(pass *analysis.Pass) (interface{}, error) {
	prog := pass.Program
	rf := prog.Fact("isolation.reach", func() interface{} {
		g := prog.Callgraph()
		reached, from := g.Reachable(entries(prog, g))
		return &reachFact{reached: reached, from: from}
	}).(*reachFact)

	g := prog.Callgraph()
	for _, node := range g.Nodes {
		if node.Pkg != pass.Pkg || !rf.reached[node] {
			continue
		}
		for _, w := range nodeWrites(node) {
			pass.Report(analysis.Diagnostic{
				Pos:     w.pos,
				Message: fmt.Sprintf("%s reachable from %s", w.what, chain(pass.Fset, rf, node)),
			})
		}
	}
	return nil, nil
}

// chain renders "entry" or "entry (via containing function)" for a report.
func chain(fset *token.FileSet, rf *reachFact, node *callgraph.Node) string {
	path := callgraph.PathFrom(rf.from, node)
	if len(path) == 0 {
		return node.Name(fset)
	}
	entry := path[0].Name(fset)
	if len(path) == 1 {
		return "entry " + entry
	}
	return fmt.Sprintf("entry %s (via %s)", entry, node.Name(fset))
}

// entries collects the simulation entry nodes, in deterministic order: the
// sim.Run* drivers, then hook-method implementations in graph order.
func entries(prog *analysis.Program, g *callgraph.Graph) []*callgraph.Node {
	var out []*callgraph.Node
	if simPkg := prog.TypesPackage(simPath); simPkg != nil {
		for _, name := range simEntryFuncs {
			if fn, ok := simPkg.Scope().Lookup(name).(*types.Func); ok {
				if n := g.NodeOf(fn); n != nil {
					out = append(out, n)
				}
			}
		}
	}
	// Hook methods: resolve each interface once, then scan nodes in order.
	for _, method := range []string{"OnAccess", "OnInst"} {
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
// Per-function write detection.

type write struct {
	pos  token.Pos
	what string
}

// nodeWrites analyzes one function body: CFG liveness plus a flow-insensitive
// alias pass, then write classification over the live leaf statements.
func nodeWrites(node *callgraph.Node) []write {
	if node.Body == nil {
		return nil
	}
	g := cfg.New(node.Body)
	liveBlocks := g.Live()

	// Live leaf statements in deterministic (block construction) order.
	var stmts []ast.Stmt
	for _, blk := range g.Blocks {
		if liveBlocks[blk] {
			stmts = append(stmts, blk.Stmts...)
		}
	}

	info := node.Info
	// taint maps a local variable to the package-level variable it aliases.
	taint := map[*types.Var]*types.Var{}
	// Fixpoint over alias chains (p := &g; q := p; ...). Bodies are small;
	// chains converge in a couple of rounds.
	for changed, rounds := true, 0; changed && rounds < 8; rounds++ {
		changed = false
		for _, s := range stmts {
			as, ok := s.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				continue
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				lv, ok := objOf(info, id).(*types.Var)
				if !ok || pkgLevel(lv) {
					continue
				}
				root := globalRoot(info, taint, as.Rhs[i])
				if root != nil && referenceLike(lv.Type()) && taint[lv] == nil {
					taint[lv] = root
					changed = true
				}
			}
		}
	}

	var out []write
	report := func(pos token.Pos, format string, args ...interface{}) {
		out = append(out, write{pos: pos, what: fmt.Sprintf(format, args...)})
	}
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				checkLValue(info, taint, lhs, report)
			}
		case *ast.IncDecStmt:
			checkLValue(info, taint, s.X, report)
		case *ast.SendStmt:
			if v := rootVar(info, s.Chan); v != nil && pkgLevel(v) {
				report(s.Arrow, "send on package-level channel %q", v.Name())
			} else if root := globalRoot(info, taint, s.Chan); root != nil {
				report(s.Arrow, "send on channel aliased from package-level var %q", root.Name())
			}
		}
		// Mutating built-ins and escaping addresses can appear in any
		// statement position (expression statements, call arguments).
		ast.Inspect(s, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && node.Lit != lit {
				return false // nested literal bodies are their own nodes
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkCall(info, taint, call, report)
			return true
		})
	}
	return out
}

// checkLValue classifies one assignment target.
func checkLValue(info *types.Info, taint map[*types.Var]*types.Var, lhs ast.Expr, report func(token.Pos, string, ...interface{})) {
	lhs = ast.Unparen(lhs)
	if v := rootVar(info, lhs); v != nil {
		if pkgLevel(v) {
			report(lhs.Pos(), "write to package-level var %q", v.Name())
			return
		}
		// Writing *through* a tainted local (deref, index, field) mutates
		// the aliased global; rebinding the bare local does not.
		if root := taint[v]; root != nil {
			if _, bare := lhs.(*ast.Ident); !bare {
				report(lhs.Pos(), "write through alias of package-level var %q", root.Name())
			}
		}
	}
}

// checkCall flags mutating built-ins, escaping addresses of globals, and
// pointer-receiver method calls on globals.
func checkCall(info *types.Info, taint map[*types.Var]*types.Var, call *ast.CallExpr, report func(token.Pos, string, ...interface{})) {
	// Built-ins delete/clear/copy mutate their first argument.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "delete", "clear", "copy":
			if _, isBuiltin := objOf(info, id).(*types.Builtin); isBuiltin && len(call.Args) > 0 {
				if v := rootVar(info, call.Args[0]); v != nil && pkgLevel(v) {
					report(call.Args[0].Pos(), "mutation of package-level var %q via %s", v.Name(), id.Name)
				} else if root := globalRoot(info, taint, call.Args[0]); root != nil {
					report(call.Args[0].Pos(), "mutation of state aliased from package-level var %q via %s", root.Name(), id.Name)
				}
			}
			return
		}
	}
	// &global handed to any call: the callee may store through it.
	for _, arg := range call.Args {
		if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
			if v := rootVar(info, u.X); v != nil && pkgLevel(v) {
				report(arg.Pos(), "address of package-level var %q escapes into a call", v.Name())
			}
		}
	}
	// global.Method() with a pointer receiver may mutate global.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if fn, ok := objOf(info, sel.Sel).(*types.Func); ok {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				if _, ptr := sig.Recv().Type().(*types.Pointer); ptr {
					if v := rootVar(info, sel.X); v != nil && pkgLevel(v) {
						report(call.Pos(), "call to pointer-receiver method %s on package-level var %q", fn.Name(), v.Name())
					}
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Object plumbing.

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// pkgLevel reports whether v is a package-level variable.
func pkgLevel(v *types.Var) bool {
	if v == nil || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

// rootVar unwraps an expression to the variable at its base: selectors,
// indexing, slicing, dereference and address-of all chase X; a qualified
// identifier pkg.Var resolves to Var.
func rootVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := objOf(info, x).(*types.Var)
			return v
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := objOf(info, id).(*types.PkgName); isPkg {
					v, _ := objOf(info, x.Sel).(*types.Var)
					return v
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// globalRoot resolves an expression to the package-level variable it aliases,
// directly or through a tainted local; nil when it aliases none.
func globalRoot(info *types.Info, taint map[*types.Var]*types.Var, e ast.Expr) *types.Var {
	v := rootVar(info, e)
	if v == nil {
		return nil
	}
	if pkgLevel(v) {
		return v
	}
	return taint[v]
}

// referenceLike reports whether values of t share underlying storage when
// copied: pointers, slices, maps and channels alias; values do not.
func referenceLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}
