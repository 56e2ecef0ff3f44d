package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"dvsim/internal/lint/load"
)

// floatEq flags == and != between floating-point expressions.
//
// Invariant: quantities like simulated time, battery charge and busy
// fractions are accumulated floats; exact equality between computed
// values depends on summation order and compiler fusion, which is how
// "same inputs, same outputs" quietly breaks between machines. Compare
// with an epsilon, or compare in integer ticks/frames. An exact test
// can also hold on every input the tests try and still be the wrong
// test, so no output check replaces this one.
//
// Two shapes are exempt because they are exact by construction:
// comparison against a constant zero (the untouched-value sentinel:
// 0.0 assigned is 0.0 compared) and the x != x NaN probe. Comparing
// two *stored* (never recomputed) values for identity — the event
// queue's tie-break — is legitimate and annotated in place with
// //lint:allow floateq.
func floatEq(pkg *load.Package, report func(token.Pos, string)) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			if !isFloat(pkg.Info.TypeOf(bin.X)) && !isFloat(pkg.Info.TypeOf(bin.Y)) {
				return true
			}
			if isConstZero(pkg.Info, bin.X) || isConstZero(pkg.Info, bin.Y) {
				return true
			}
			if bin.Op == token.NEQ && sameIdent(bin.X, bin.Y) {
				return true // NaN probe
			}
			report(bin.OpPos, "floating-point "+bin.Op.String()+" comparison: exact equality of computed floats is machine-dependent; use an epsilon or integer ticks (//lint:allow floateq only for identity of stored values)")
			return true
		})
	}
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

// isConstZero reports whether e is a compile-time constant equal to 0.
func isConstZero(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}

// sameIdent reports whether both expressions are the same identifier.
func sameIdent(x, y ast.Expr) bool {
	xi, ok1 := ast.Unparen(x).(*ast.Ident)
	yi, ok2 := ast.Unparen(y).(*ast.Ident)
	return ok1 && ok2 && xi.Name == yi.Name
}
