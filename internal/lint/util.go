package lint

import (
	"go/ast"
	"go/types"

	"dvsim/internal/lint/analysis"
)

// simPkgPath is the package whose scheduling API several analyzers
// recognize by type identity.
const simPkgPath = "dvsim/internal/sim"

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

// methodOn reports whether fn is a method with the given name declared
// on a named type (or pointer to it) from package pkgPath.
func methodOn(fn *types.Func, pkgPath, typeName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
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
