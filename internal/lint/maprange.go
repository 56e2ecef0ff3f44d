package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dvsim/internal/lint/analysis"
)

// MapRange flags output emitted from inside a `range` over a map.
//
// Invariant: everything the simulator writes — telemetry JSONL, report
// CSVs, experiment tables — is byte-deterministic, and Go randomizes
// map iteration order on purpose. Any print, writer call or metrics
// accumulation reached directly inside a map range therefore emits (or
// accumulates floating-point state) in a different order every run.
// This is exactly the bug class the telemetry-ordering goldens exist to
// catch; the fix is the runlog pattern: collect the keys, sort them,
// then range over the sorted slice.
var MapRange = &analysis.Analyzer{
	Name: "maprange",
	Doc:  "flags output writes and metric accumulation inside range-over-map (iteration order is randomized)",
	Run:  runMapRange,
}

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

func runMapRange(pass *analysis.Pass) error {
	reported := map[token.Pos]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rng.X)
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
				if kind := outputCall(pass, call); kind != "" && !reported[call.Pos()] {
					reported[call.Pos()] = true
					pass.Reportf(call.Pos(), "%s inside range over map runs in randomized iteration order: collect the keys, sort, then emit (cf. internal/core/runlog.go)", kind)
				}
				return true
			})
			return true
		})
	}
	return nil
}

// outputCall classifies a call as order-sensitive output, returning a
// short description or "".
func outputCall(pass *analysis.Pass, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "print" || id.Name == "println") {
		if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			return "builtin " + id.Name
		}
	}
	fn := calledFunc(pass, call)
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
