package lint

import (
	"go/ast"
	"go/types"

	"dvsim/internal/lint/analysis"
)

// EventReuse polices the kernel's zero-alloc Event re-arming API
// (PR 4): one owner, one Bind, re-armed occurrences via Reschedule.
//
// Invariants, each matching a misuse the interleaving tests only catch
// dynamically:
//
//  1. Events returned by At/After are already bound, and a queued
//     occurrence snapshots its callback into the kernel's slot slab —
//     calling Bind on such a handle silently leaves the queued
//     occurrence firing the *old* callback. A rebindable handle is a
//     zero Event + Bind + Reschedule.
//  2. Re-arming a long-lived handle by assigning a fresh At/After
//     result to it inside a loop abandons the previous handle (its
//     occurrence stays queued unless canceled) and allocates per
//     occurrence; the kernel provides Reschedule precisely so periodic
//     callers reuse one handle for a whole series.
//  3. Bind inside a loop on a handle declared outside it rebuilds the
//     callback closure every iteration; Bind once at setup, then
//     Reschedule occurrences.
var EventReuse = &analysis.Analyzer{
	Name: "eventreuse",
	Doc:  "flags At/After re-arming and re-Bind patterns where the zero-alloc Bind+Reschedule protocol is required",
	Run:  runEventReuse,
}

func runEventReuse(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkEventReuse(pass, fd.Body)
		}
	}
	return nil
}

// checkEventReuse analyzes one function body.
func checkEventReuse(pass *analysis.Pass, body *ast.BlockStmt) {
	// Pass 1: which local variables hold an At/After result?
	fromAtAfter := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !isAtAfterCall(pass, rhs) {
				continue
			}
			if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok {
				if obj := pass.Info.ObjectOf(id); obj != nil {
					fromAtAfter[obj] = true
				}
			}
		}
		return true
	})

	// Pass 2: walk with the enclosing-loop stack and report misuses.
	var loops []ast.Node
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		switch s := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, s)
			ast.Inspect(s, func(m ast.Node) bool {
				if m == s {
					return true
				}
				if _, isLoop := m.(*ast.ForStmt); isLoop {
					walk(m)
					return false
				}
				if _, isLoop := m.(*ast.RangeStmt); isLoop {
					walk(m)
					return false
				}
				checkNode(pass, m, loops, fromAtAfter)
				return true
			})
			loops = loops[:len(loops)-1]
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			switch m.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				walk(m)
				return false
			}
			checkNode(pass, m, loops, fromAtAfter)
			return true
		})
	}
	walk(body)
}

// checkNode reports eventreuse misuses at a single node, given the
// stack of enclosing loops.
func checkNode(pass *analysis.Pass, n ast.Node, loops []ast.Node, fromAtAfter map[types.Object]bool) {
	innermost := func() ast.Node {
		if len(loops) == 0 {
			return nil
		}
		return loops[len(loops)-1]
	}
	declaredOutside := func(obj types.Object, loop ast.Node) bool {
		return obj != nil && (obj.Pos() < loop.Pos() || obj.Pos() > loop.End())
	}
	switch s := n.(type) {
	case *ast.AssignStmt:
		loop := innermost()
		if loop == nil || len(s.Lhs) != len(s.Rhs) {
			return
		}
		for i, rhs := range s.Rhs {
			if !isAtAfterCall(pass, rhs) {
				continue
			}
			id, ok := ast.Unparen(s.Lhs[i]).(*ast.Ident)
			if !ok {
				continue
			}
			if obj := pass.Info.ObjectOf(id); declaredOutside(obj, loop) {
				pass.Reportf(rhs.Pos(), "At/After re-arms %s inside a loop, abandoning the previous handle each iteration: Bind one Event and re-arm it with Kernel.Reschedule (zero-alloc)", id.Name)
			}
		}
	case *ast.CallExpr:
		recv, isBind := bindReceiver(pass, s)
		if !isBind || recv == nil {
			return
		}
		obj := pass.Info.ObjectOf(recv)
		if obj != nil && fromAtAfter[obj] {
			pass.Reportf(s.Pos(), "Bind on %s, an Event returned by At/After: the queued occurrence keeps its old callback; use a zero Event, Bind once, and arm it with Reschedule", recv.Name)
			return
		}
		if loop := innermost(); loop != nil && declaredOutside(obj, loop) {
			pass.Reportf(s.Pos(), "Bind on %s inside a loop rebuilds its callback every iteration: Bind once at setup and re-arm occurrences with Reschedule", recv.Name)
		}
	}
}

// isAtAfterCall reports whether e is a call to sim.Kernel.At or After.
func isAtAfterCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calledFunc(pass, call)
	return methodOn(fn, simPkgPath, "Kernel", "At") || methodOn(fn, simPkgPath, "Kernel", "After")
}

// bindReceiver returns the plain-identifier receiver of an Event.Bind
// call, and whether the call is one.
func bindReceiver(pass *analysis.Pass, call *ast.CallExpr) (*ast.Ident, bool) {
	fn := calledFunc(pass, call)
	if !methodOn(fn, simPkgPath, "Event", "Bind") {
		return nil, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, true
	}
	id, _ := ast.Unparen(sel.X).(*ast.Ident)
	return id, true
}
