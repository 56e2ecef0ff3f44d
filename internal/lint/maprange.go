package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dvsim/internal/lint/load"
)

// orderSensitiveWriters are method names that commit bytes to an output
// stream or row sink.
var orderSensitiveWriters = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"WriteRow":    true,
	"WriteAll":    true,
	"Emit":        true,
	"Encode":      true,
}

// mapRange flags output emitted from inside a `range` over a map.
//
// Invariant: everything the simulator writes — telemetry JSONL, report
// CSVs, experiment tables — is byte-deterministic, and Go randomizes
// map iteration order on purpose. Any print, writer call or metrics
// accumulation reached directly inside a map range therefore emits (or
// accumulates floating-point state) in a different order every run.
// The goldens catch this wherever they pin the bytes, but only in the
// runs whose map order differs; output no golden pins, such as the
// Markdown comparison table, is left to this check. The fix is the
// runlog pattern: collect the keys, sort them, then range over the
// sorted slice.
func mapRange(pkg *load.Package, report func(token.Pos, string)) {
	reported := map[token.Pos]bool{}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pkg.Info.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			ast.Inspect(rng.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if kind := outputCall(pkg.Info, call); kind != "" && !reported[call.Pos()] {
					reported[call.Pos()] = true
					report(call.Pos(), kind+" inside range over map runs in randomized iteration order: collect the keys, sort, then emit (cf. internal/core/runlog.go)")
				}
				return true
			})
			return true
		})
	}
}

// outputCall classifies a call as order-sensitive output, returning a
// short description or "".
func outputCall(info *types.Info, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "" // a function value or a conversion
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok && (b.Name() == "print" || b.Name() == "println") {
		return "builtin " + b.Name()
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	name := fn.Name()
	if sig.Recv() == nil {
		if fn.Pkg().Path() == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
			return "fmt." + name
		}
		return ""
	}
	if orderSensitiveWriters[name] {
		return "writer call " + name
	}
	// Histograms accumulate float64 sums and gauges keep the last
	// level; feeding either in map order changes them run to run.
	if fn.Pkg().Path() == "dvsim/internal/metrics" {
		switch name {
		case "Observe", "Set":
			return "metrics " + name
		}
	}
	return ""
}
