// Package sinkerr flags discarded errors on the experiment-output paths
// where a silent failure corrupts or truncates results: report encoding and
// validation, experiment execution, buffered-writer flushes, and spec-string
// resolution. A general errcheck would drown the tree in findings; this list
// is exactly the set of calls whose error is the *product* of the program
// (the report) rather than incidental I/O.
package sinkerr

import (
	"go/ast"
	"go/constant"
	"go/types"

	"divlab/internal/analysis"
	"divlab/internal/sim"
)

// Analyzer is the unchecked-sink-error checker.
var Analyzer = &analysis.Analyzer{
	Name: "sinkerr",
	Doc:  "errors on report/sink paths must be checked",
	Run:  run,
}

// mustCheck lists fully qualified functions whose trailing error result must
// not be discarded.
var mustCheck = map[string]bool{
	"divlab/internal/sim.ByName":             true,
	"divlab/internal/sim.Normalize":          true,
	"divlab/internal/exp.Run":                true,
	"divlab/internal/exp.RunAll":             true,
	"divlab/internal/obs.EncodeReports":      true,
	"(*divlab/internal/obs.Report).Encode":   true,
	"(*divlab/internal/obs.Report).Validate": true,
	"(*text/tabwriter.Writer).Flush":         true,
	"(*bufio.Writer).Flush":                  true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkIgnored(pass, call, nil)
				}
			case *ast.DeferStmt:
				checkIgnored(pass, n.Call, nil)
			case *ast.GoStmt:
				checkIgnored(pass, n.Call, nil)
			case *ast.AssignStmt:
				checkBlankAssign(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// checkIgnored flags a statement-position call in the must-check list.
func checkIgnored(pass *analysis.Pass, call *ast.CallExpr, _ interface{}) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || !mustCheck[fn.FullName()] || !returnsError(fn) {
		return
	}
	pass.Reportf(call.Pos(), "result of %s is discarded; a silent failure here corrupts or truncates the experiment output", fn.Name())
}

// checkBlankAssign flags `x, _ := f(...)` where f's error result lands in
// the blank identifier. One exemption: sim.ByName with a compile-time
// constant spec that the registry grammar accepts — the specstring analyzer
// has already proven the error impossible.
func checkBlankAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || !mustCheck[fn.FullName()] || !returnsError(fn) {
		return
	}
	sig := fn.Type().(*types.Signature)
	errIdx := sig.Results().Len() - 1
	if errIdx >= len(as.Lhs) {
		return
	}
	id, ok := as.Lhs[errIdx].(*ast.Ident)
	if !ok || id.Name != "_" {
		return
	}
	if fn.FullName() == "divlab/internal/sim.ByName" && constSpecValid(pass, call) {
		return
	}
	pass.Reportf(as.Pos(), "error from %s assigned to _; handle it (or use the Must variant for specs proven valid at compile time)", fn.Name())
}

// constSpecValid reports whether the call's first argument is a constant
// spec string the registry accepts.
func constSpecValid(pass *analysis.Pass, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return false
	}
	_, err := sim.ByName(constant.StringVal(tv.Value))
	return err == nil
}

// returnsError reports whether the function's last result is an error.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	n, ok := last.(*types.Named)
	return ok && n.Obj().Name() == "error" && n.Obj().Pkg() == nil
}
