package lint

import (
	"go/ast"
	"go/types"

	"dvsim/internal/lint/analysis"
)

// calledFunc resolves the function or method named by a call
// expression, or nil for indirect calls (function values, conversions).
func calledFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.Info.Uses[id].(*types.Func)
	return fn
}

// isFloat reports whether t's underlying type is a floating-point
// basic type (covering named types like sim.Time).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
