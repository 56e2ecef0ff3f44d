package lint

import (
	"go/ast"

	"dvsim/internal/lint/analysis"
)

// NakedGo forbids raw `go` statements outside internal/sim.
//
// Invariant: a simulation runs on one goroutine, its caller's; the
// kernel's event queue in internal/sim is the only scheduler. A raw
// goroutine anywhere else races the kernel — it can observe
// half-updated node state, interleave telemetry writes, and break the
// one-event-at-a-time discipline that makes runs bit-for-bit
// reproducible. All simulated concurrency must be kernel events and
// sim.Task state machines.
// Infrastructure that parallelizes across *independent* work items
// outside any running kernel — whole simulations, or the time shards of
// a finished run's log — goes through internal/sweep, whose one go
// statement carries a //lint:allow nakedgo directive explaining why it
// is outside the kernel's jurisdiction.
var NakedGo = &analysis.Analyzer{
	Name: "nakedgo",
	Doc:  "forbids raw go statements outside internal/sim: simulated concurrency must be kernel events and sim.Task state machines",
	Run:  runNakedGo,
}

func runNakedGo(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "raw go statement: simulated concurrency must be scheduled by the kernel (events and sim.Task state machines); a worker pool over independent simulations needs //lint:allow nakedgo <reason>")
			}
			return true
		})
	}
	return nil
}
