package lint

import (
	"go/ast"
	"go/types"
	"sort"

	"dvsim/internal/lint/analysis"
)

// PoolSafe polices the slab-valid-until-release contract the
// zero-allocation telemetry pipeline introduced: the run recorder's
// record slabs are recycled through a process-wide pool, and every
// slice or handle obtained from a pooled store is valid only until the
// matching release()/Release() call — afterwards the backing memory
// belongs to the next run. The benchmark gate
// catches a *reintroduced allocation*; nothing dynamic reliably catches
// a *retained reference*, because the recycled slab usually still holds
// plausible bytes. This analyzer catches the known shapes of that bug
// statically:
//
//  1. Use after release: a value obtained from a slab source — or the
//     released handle itself — is read after the release call on any
//     path that continues past it. (Releases inside branches that end
//     in return do not poison the surrounding function.)
//  2. Retention: a slab-backed value is stored into a struct field, a
//     container, or a package-level variable, outliving the release
//     scope.
//
// Slab sources are seeded by contract-as-documentation: a function
// whose doc comment contains the phrase "valid until release" declares
// that its results alias pooled storage (internal/core's
// recorder.collect is the archetype). From those seeds the analyzer
// propagates interprocedurally: a function that returns a slab-backed
// value — or the pool handle that releases it — becomes a source
// itself, with facts recording which results and parameters belong to
// the slab group, so the check follows the value through helpers like
// core's Simulate without any annotation on them.
//
// Known limits, chosen to keep the check quiet: closures are analyzed
// as separate functions (a slab value captured by a closure that runs
// after release is not tracked across the boundary); deferred releases
// are ignored (they run at return, after every use); kills do not
// propagate out of loops (a loop body may run zero times); and a
// rebound name stays tracked (releasing its group after rebinding can
// report conservatively — silence a deliberate pattern with
// //lint:allow poolsafe <reason>).
var PoolSafe = &analysis.Analyzer{
	Name: "poolsafe",
	Doc:  "flags slab-backed values retained, stored or used past the release()/Release() returning their pool",
	Run:  runPoolSafe,
}

// poolMarker is the doc-comment phrase that declares a function's
// results alias pooled storage. Keeping the marker in prose means the
// human-facing contract and the machine-enforced one are one sentence.
const poolMarker = "valid until release"

// poolFact describes a slab-source function: which of its results are
// slab-backed, and through which inputs the pool handle aliases. An
// empty Results list on a doc-marked seed means "every result".
type poolFact struct {
	AliasRecv   bool  // the receiver belongs to the slab group
	AliasParams []int // parameter indices that belong to the group
	Results     []int // result indices that belong to the group
}

func (*poolFact) AFact() {}

func (f *poolFact) equal(g *poolFact) bool {
	if f.AliasRecv != g.AliasRecv || len(f.AliasParams) != len(g.AliasParams) || len(f.Results) != len(g.Results) {
		return false
	}
	for i := range f.AliasParams {
		if f.AliasParams[i] != g.AliasParams[i] {
			return false
		}
	}
	for i := range f.Results {
		if f.Results[i] != g.Results[i] {
			return false
		}
	}
	return true
}

func runPoolSafe(pass *analysis.Pass) error {
	prog := pass.Program
	if prog == nil {
		return nil
	}
	sources := prog.Cached("poolsafe.sources", func() any {
		return poolSources(prog)
	}).(map[string]*poolFact)

	pkg := programPkgOf(prog, pass.Pkg)
	if pkg == nil {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			analyzePoolBody(pkg, fd, sources, pass)
		}
	}
	return nil
}

// programPkgOf finds the Program's view of the type-checked package.
func programPkgOf(prog *analysis.Program, tp *types.Package) *analysis.ProgramPkg {
	for _, p := range prog.Pkgs {
		if p.Types == tp {
			return p
		}
	}
	return nil
}

// poolSources computes the slab-source fact set to a fixpoint: the
// doc-marked seeds first, then functions that return slab-backed values
// obtained from already-known sources, until no body contributes a new
// or wider fact.
func poolSources(prog *analysis.Program) map[string]*poolFact {
	sources := map[string]*poolFact{}
	for id, node := range prog.Graph.Nodes {
		if node.Decl != nil && analysis.DocContains(node.Decl, poolMarker) {
			sources[id] = &poolFact{AliasRecv: node.Decl.Recv != nil}
		}
	}
	for round := 0; round < len(prog.Graph.Nodes)+1; round++ {
		changed := false
		for id, node := range prog.Graph.Nodes {
			if node.Decl == nil || node.Decl.Body == nil {
				continue
			}
			got := analyzePoolBody(node.Pkg, node.Decl, sources, nil)
			if got == nil {
				continue
			}
			if have := sources[id]; have == nil {
				sources[id] = got
				changed = true
			} else {
				merged := mergePoolFacts(have, got)
				if !merged.equal(have) {
					sources[id] = merged
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return sources
}

func mergePoolFacts(a, b *poolFact) *poolFact {
	return &poolFact{
		AliasRecv:   a.AliasRecv || b.AliasRecv,
		AliasParams: mergeSorted(a.AliasParams, b.AliasParams),
		Results:     mergeSorted(a.Results, b.Results),
	}
}

func mergeSorted(a, b []int) []int {
	set := map[int]bool{}
	for _, v := range a {
		set[v] = true
	}
	for _, v := range b {
		set[v] = true
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// poolGroup is one slab lifetime: the values and handles that share a
// pooled backing store and die together at its release. src is the
// rendered source call ("rc.collect"); "" marks a synthetic group for a
// released handle the analyzer had not been tracking.
type poolGroup struct {
	src string
}

// poolKill records the release call that ended a group, for messages.
type poolKill struct {
	what string // e.g. "rc.release()"
}

// poolCtx is the per-body analysis state.
type poolCtx struct {
	pkg     *analysis.ProgramPkg
	sources map[string]*poolFact
	pass    *analysis.Pass // nil during the fixpoint rounds

	recvObj types.Object
	params  map[types.Object]int

	member map[types.Object]*poolGroup
	fact   *poolFact

	funcLits []*ast.FuncLit
}

// analyzePoolBody walks one function body. With a non-nil pass it
// reports findings; it always returns the poolFact the body implies for
// its function (nil when the function exposes no slab state).
func analyzePoolBody(pkg *analysis.ProgramPkg, fd *ast.FuncDecl, sources map[string]*poolFact, pass *analysis.Pass) *poolFact {
	ctx := newPoolCtx(pkg, sources, pass)
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		ctx.recvObj = pkg.Info.Defs[fd.Recv.List[0].Names[0]]
	}
	idx := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			ctx.params[pkg.Info.Defs[name]] = idx
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}
	ctx.walkList(fd.Body.List, map[*poolGroup]poolKill{})

	// Closures get their own pass with fresh state: slab discipline
	// inside them is checked, capture across the boundary is not.
	for len(ctx.funcLits) > 0 {
		lit := ctx.funcLits[0]
		ctx.funcLits = ctx.funcLits[1:]
		sub := newPoolCtx(pkg, sources, pass)
		sub.walkList(lit.Body.List, map[*poolGroup]poolKill{})
		ctx.funcLits = append(ctx.funcLits, sub.funcLits...)
	}

	if ctx.fact.AliasRecv || len(ctx.fact.AliasParams) > 0 || len(ctx.fact.Results) > 0 {
		sort.Ints(ctx.fact.AliasParams)
		sort.Ints(ctx.fact.Results)
		return ctx.fact
	}
	return nil
}

func newPoolCtx(pkg *analysis.ProgramPkg, sources map[string]*poolFact, pass *analysis.Pass) *poolCtx {
	return &poolCtx{
		pkg:     pkg,
		sources: sources,
		pass:    pass,
		params:  map[types.Object]int{},
		member:  map[types.Object]*poolGroup{},
		fact:    &poolFact{},
	}
}

// walkList processes one statement list under the given kill set,
// mutating killed as releases occur. It reports whether the list
// always terminates (return / branch / panic at the end), which decides
// whether a nested block's kills escape to the statements after it.
func (c *poolCtx) walkList(stmts []ast.Stmt, killed map[*poolGroup]poolKill) bool {
	for _, stmt := range stmts {
		c.walkStmt(stmt, killed)
	}
	return len(stmts) > 0 && terminates(stmts[len(stmts)-1])
}

// branch runs a nested block on a copy of the kill set and folds its
// kills back into killed when the branch can fall through to the
// statements after it.
func (c *poolCtx) branch(stmts []ast.Stmt, killed map[*poolGroup]poolKill, propagate bool) {
	inner := cloneKills(killed)
	terminated := c.walkList(stmts, inner)
	if propagate && !terminated {
		for g, k := range inner {
			if _, ok := killed[g]; !ok {
				killed[g] = k
			}
		}
	}
}

func cloneKills(killed map[*poolGroup]poolKill) map[*poolGroup]poolKill {
	out := make(map[*poolGroup]poolKill, len(killed))
	for g, k := range killed {
		out[g] = k
	}
	return out
}

func (c *poolCtx) walkStmt(stmt ast.Stmt, killed map[*poolGroup]poolKill) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		c.branch(s.List, killed, true)
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, killed)
		}
		c.checkUses(s.Cond, killed)
		c.branch(s.Body.List, killed, true)
		if s.Else != nil {
			c.walkStmt(s.Else, killed)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, killed)
		}
		if s.Cond != nil {
			c.checkUses(s.Cond, killed)
		}
		// The body may run zero times: its kills stay inside.
		c.branch(s.Body.List, killed, false)
	case *ast.RangeStmt:
		c.checkUses(s.X, killed)
		c.branch(s.Body.List, killed, false)
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, killed)
		}
		if s.Tag != nil {
			c.checkUses(s.Tag, killed)
		}
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				c.branch(clause.Body, killed, true)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, killed)
		}
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				c.branch(clause.Body, killed, true)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CommClause); ok {
				c.branch(clause.Body, killed, true)
			}
		}
	case *ast.LabeledStmt:
		c.walkStmt(s.Stmt, killed)
	case *ast.DeferStmt, *ast.GoStmt:
		// A deferred release runs after the last use by construction;
		// a go statement's schedule is not this analyzer's problem.
	case nil:
	default:
		c.plainStmt(stmt, killed)
	}
}

// plainStmt handles a leaf statement: uses are checked against the
// current kills first (so the killing statement itself is exempt), then
// groups grow from source calls and alias assignments, then releases in
// the statement register their kills.
func (c *poolCtx) plainStmt(stmt ast.Stmt, killed map[*poolGroup]poolKill) {
	c.checkUses(stmt, killed)
	c.collectFuncLits(stmt)

	switch s := stmt.(type) {
	case *ast.AssignStmt:
		c.handleAssign(s, killed)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			c.bindSourceCall(call, nil)
		}
	case *ast.ReturnStmt:
		c.handleReturn(s)
	}

	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv := c.releaseReceiver(call)
		if recv == nil {
			return true
		}
		obj := c.pkg.Info.ObjectOf(recv)
		if obj == nil {
			return true
		}
		g := c.member[obj]
		if g == nil {
			g = &poolGroup{}
			c.member[obj] = g
		}
		if _, dead := killed[g]; !dead {
			killed[g] = poolKill{what: calledName(c.pkg.Info, call) + "()"}
		}
		return true
	})
}

// checkUses reports reads of killed-group members inside n. Function
// literals are opaque (analyzed separately); write-only appearances on
// the left of an assignment are rebinds, not reads.
func (c *poolCtx) checkUses(n ast.Node, killed map[*poolGroup]poolKill) {
	if n == nil || c.pass == nil || len(killed) == 0 {
		return
	}
	writes := map[*ast.Ident]bool{}
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				writes[id] = true
			}
		}
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok || writes[id] {
			return true
		}
		obj := c.pkg.Info.ObjectOf(id)
		if obj == nil {
			return true
		}
		g := c.member[obj]
		if g == nil {
			return true
		}
		kill, dead := killed[g]
		if !dead {
			return true
		}
		if g.src != "" {
			c.pass.Reportf(id.Pos(), "%s aliases pooled memory returned by %s and is used after %s recycled it: the slab now belongs to the next run — extract or copy results before releasing", id.Name, g.src, kill.what)
		} else {
			c.pass.Reportf(id.Pos(), "%s is used after %s returned its pooled state: release exactly once, after the last use", id.Name, kill.what)
		}
		return true
	})
}

// handleAssign grows groups from source calls and alias chains, and
// reports slab values stored where they outlive the release scope.
func (c *poolCtx) handleAssign(s *ast.AssignStmt, killed map[*poolGroup]poolKill) {
	// Multi-value form: x, y, err := sourceCall(...).
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			c.bindSourceCall(call, s.Lhs)
		}
		return
	}
	for i, rhs := range s.Rhs {
		if i >= len(s.Lhs) {
			break
		}
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			c.bindSourceCall(call, s.Lhs[i:i+1])
			continue
		}
		rhsID, ok := ast.Unparen(rhs).(*ast.Ident)
		if !ok {
			continue
		}
		g := c.member[c.pkg.Info.ObjectOf(rhsID)]
		if g == nil || g.src == "" {
			continue
		}
		if _, dead := killed[g]; dead {
			continue // the read was already reported by checkUses
		}
		switch lhs := ast.Unparen(s.Lhs[i]).(type) {
		case *ast.Ident:
			obj := c.pkg.Info.ObjectOf(lhs)
			if obj == nil {
				continue
			}
			if isPackageLevel(obj) {
				if c.pass != nil {
					c.pass.Reportf(s.Pos(), "package-level %s retains slab-backed %s (from %s) past its release: the pooled memory is recycled into the next run — copy the data instead", lhs.Name, rhsID.Name, g.src)
				}
				continue
			}
			c.member[obj] = g // local alias joins the group
		case *ast.SelectorExpr:
			if base, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
				if c.member[c.pkg.Info.ObjectOf(base)] == g {
					continue // the pool type managing its own fields
				}
			}
			if c.pass != nil {
				c.pass.Reportf(s.Pos(), "field %s retains slab-backed %s (from %s) past its release: the pooled memory is recycled into the next run — copy the data instead", lhs.Sel.Name, rhsID.Name, g.src)
			}
		case *ast.IndexExpr:
			if c.pass != nil {
				c.pass.Reportf(s.Pos(), "container element retains slab-backed %s (from %s) past its release: the pooled memory is recycled into the next run — copy the data instead", rhsID.Name, g.src)
			}
		}
	}
}

// bindSourceCall links a source call's results, receiver and aliased
// arguments into one group. lhs may be nil when the results are
// discarded (the receiver and arguments still join).
func (c *poolCtx) bindSourceCall(call *ast.CallExpr, lhs []ast.Expr) {
	fact := c.sourceFact(call)
	if fact == nil {
		return
	}
	g := &poolGroup{src: calledName(c.pkg.Info, call)}
	join := func(id *ast.Ident, anyType bool) {
		obj := c.pkg.Info.ObjectOf(id)
		if obj == nil {
			return
		}
		if !anyType && !poolableType(obj.Type()) {
			return
		}
		c.member[obj] = g
	}
	if len(fact.Results) > 0 {
		for _, ri := range fact.Results {
			if ri < len(lhs) {
				if id, ok := ast.Unparen(lhs[ri]).(*ast.Ident); ok {
					join(id, true)
				}
			}
		}
	} else {
		// A doc-marked seed: every slab-shaped result belongs to the
		// group; error and scalar results do not.
		for _, e := range lhs {
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				join(id, false)
			}
		}
	}
	if fact.AliasRecv {
		if recv := callReceiverIdent(call); recv != nil {
			join(recv, true)
		}
	}
	for _, pi := range fact.AliasParams {
		if pi < len(call.Args) {
			if id, ok := ast.Unparen(call.Args[pi]).(*ast.Ident); ok {
				join(id, true)
			}
		}
	}
}

// handleReturn records the enclosing function's slab exposure: result
// indices returning live group members, and the receiver/parameters
// sharing their group. This is how helpers that pass a collected slab
// on become sources without a doc marker.
func (c *poolCtx) handleReturn(s *ast.ReturnStmt) {
	for i, res := range s.Results {
		switch e := ast.Unparen(res).(type) {
		case *ast.Ident:
			g := c.member[c.pkg.Info.ObjectOf(e)]
			if g == nil || g.src == "" {
				continue
			}
			c.fact.Results = appendUnique(c.fact.Results, i)
			c.attributeGroup(g)
		case *ast.CallExpr:
			fact := c.sourceFact(e)
			if fact == nil {
				continue
			}
			g := &poolGroup{src: calledName(c.pkg.Info, e)}
			if fact.AliasRecv {
				if recv := callReceiverIdent(e); recv != nil {
					if obj := c.pkg.Info.ObjectOf(recv); obj != nil {
						c.member[obj] = g
					}
				}
			}
			for _, pi := range fact.AliasParams {
				if pi < len(e.Args) {
					if id, ok := ast.Unparen(e.Args[pi]).(*ast.Ident); ok {
						if obj := c.pkg.Info.ObjectOf(id); obj != nil {
							c.member[obj] = g
						}
					}
				}
			}
			if len(s.Results) == 1 {
				// return sourceCall(...): the inner results flow out 1:1.
				if len(fact.Results) > 0 {
					for _, ri := range fact.Results {
						c.fact.Results = appendUnique(c.fact.Results, ri)
					}
				} else {
					c.fact.Results = appendUnique(c.fact.Results, 0)
				}
			} else {
				c.fact.Results = appendUnique(c.fact.Results, i)
			}
			c.attributeGroup(g)
		}
	}
}

// attributeGroup folds a returned group's receiver/parameter members
// into the enclosing function's fact.
func (c *poolCtx) attributeGroup(g *poolGroup) {
	for obj, og := range c.member {
		if og != g || obj == nil {
			continue
		}
		if c.recvObj != nil && obj == c.recvObj {
			c.fact.AliasRecv = true
		}
		if pi, ok := c.params[obj]; ok {
			c.fact.AliasParams = appendUnique(c.fact.AliasParams, pi)
		}
	}
}

func appendUnique(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// sourceFact returns the slab fact of the called function, or nil.
func (c *poolCtx) sourceFact(call *ast.CallExpr) *poolFact {
	fn := calledFuncIn(c.pkg.Info, call)
	if fn == nil {
		return nil
	}
	return c.sources[analysis.FuncID(fn)]
}

// releaseReceiver returns the plain-identifier receiver of a niladic
// release()/Release() method call, else nil. Chained receivers
// (r.Net.Release()) are skipped: the analyzer tracks simple names.
func (c *poolCtx) releaseReceiver(call *ast.CallExpr) *ast.Ident {
	fn := calledFuncIn(c.pkg.Info, call)
	if fn == nil {
		return nil
	}
	if name := fn.Name(); name != "Release" && name != "release" {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 0 {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, _ := ast.Unparen(sel.X).(*ast.Ident)
	return id
}

// collectFuncLits queues closures in the statement for their own pass.
func (c *poolCtx) collectFuncLits(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok {
			c.funcLits = append(c.funcLits, lit)
			return false
		}
		return true
	})
}

// calledFuncIn is calledFunc against an explicit Info: the poolsafe
// fixpoint analyzes packages other than the current Pass's.
func calledFuncIn(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// callReceiverIdent returns the plain-identifier receiver of a method
// call, else nil.
func callReceiverIdent(call *ast.CallExpr) *ast.Ident {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, _ := ast.Unparen(sel.X).(*ast.Ident)
	return id
}

// calledName renders the called function for diagnostics: "rc.collect"
// or "writeLog".
func calledName(info *types.Info, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}

// poolableType reports whether a value of type t can alias pooled
// storage: anything reference-shaped or aggregate. Scalars and the
// error interface (conventionally a fresh value) are excluded so a
// source's err result never joins the slab group.
func poolableType(t types.Type) bool {
	if t == nil {
		return false
	}
	if named, ok := t.(*types.Named); ok {
		if obj := named.Obj(); obj != nil && obj.Pkg() == nil && obj.Name() == "error" {
			return false
		}
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map, *types.Struct, *types.Chan, *types.Interface, *types.Signature, *types.Array:
		return true
	}
	return false
}

// isPackageLevel reports whether obj is a package-scoped variable.
func isPackageLevel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// terminates reports whether a statement never falls through to its
// successor in the enclosing list.
func terminates(s ast.Stmt) bool {
	switch t := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(t.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if x, ok := ast.Unparen(sel.X).(*ast.Ident); ok && x.Name == "os" && sel.Sel.Name == "Exit" {
					return true
				}
			}
		}
	case *ast.IfStmt:
		if t.Else == nil {
			return false
		}
		bodyTerm := len(t.Body.List) > 0 && terminates(t.Body.List[len(t.Body.List)-1])
		var elseTerm bool
		switch e := t.Else.(type) {
		case *ast.BlockStmt:
			elseTerm = len(e.List) > 0 && terminates(e.List[len(e.List)-1])
		case *ast.IfStmt:
			elseTerm = terminates(e)
		}
		return bodyTerm && elseTerm
	}
	return false
}
