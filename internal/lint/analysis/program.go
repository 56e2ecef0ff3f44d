package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the interprocedural half of the framework: a whole-run
// Program view over every package the driver loaded, a type-based call
// graph, and a memo through which per-package passes share one
// whole-program computation (nondetflow's taint fixpoint). The whole
// program is in memory at once, so nothing crosses package boundaries
// by serialization.

// ProgramPkg is one loaded package as the Program sees it.
type ProgramPkg struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is the whole-run view shared by every Pass: all loaded
// packages, the call graph over them, a memo, and the driver's
// suppression predicate. Analyzers that need cross-function reasoning
// reach it through Pass.Program.
type Program struct {
	Fset *token.FileSet
	Pkgs []*ProgramPkg

	// Graph is the type-based call graph over the loaded packages.
	Graph *CallGraph

	// Suppressed reports whether the driver would drop a diagnostic of
	// the named analyzer at pos (sanctioned file or a validated
	// //lint:allow directive). Interprocedural analyzers consult it so
	// that an explicitly allowed root does not taint its callers.
	Suppressed func(analyzer string, pos token.Position) bool

	memo map[string]any
}

// NewProgram builds the whole-run view: it indexes the packages and
// constructs the call graph. The driver calls it once per run.
func NewProgram(fset *token.FileSet, pkgs []*ProgramPkg) *Program {
	p := &Program{
		Fset:       fset,
		Pkgs:       pkgs,
		Suppressed: func(string, token.Position) bool { return false },
		memo:       map[string]any{},
	}
	p.Graph = buildCallGraph(fset, pkgs)
	return p
}

// Cached memoizes a program-wide computation under key: the first call
// runs build, later calls return the stored result. Per-package passes
// of the same analyzer share their expensive whole-program state (taint
// sets, source fixpoints) through it.
func (p *Program) Cached(key string, build func() any) any {
	if v, ok := p.memo[key]; ok {
		return v
	}
	v := build()
	p.memo[key] = v
	return v
}

// FuncID names a function uniquely and stably across packages. Two
// packages may hold distinct *types.Func objects for the same function
// (one type-checked from source, one reconstructed from export data),
// so identity must be by name, not pointer:
//
//	dvsim/internal/core.RunTelemetry
//	(*dvsim/internal/host.Host).Release
func FuncID(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	return fn.Origin().FullName()
}

// CallGraph is the program's type-based call graph. Static calls to
// named functions and methods become direct edges; calls through an
// interface method become one edge per concrete type in the program
// that implements the interface (class-hierarchy analysis), marked
// Dynamic. Calls through plain function values are not resolved.
type CallGraph struct {
	// Nodes is keyed by FuncID. A node exists for every function
	// declared in the loaded packages (Decl non-nil) and for every
	// function they reference from elsewhere (Decl nil: stdlib and
	// export-data-only dependencies).
	Nodes map[string]*CallNode
}

// CallNode is one function in the call graph.
type CallNode struct {
	ID   string
	Fn   *types.Func   // from the defining package's realm when declared here
	Decl *ast.FuncDecl // nil when the body is not in the program
	Pkg  *ProgramPkg   // the declaring package, nil when external

	Out []*CallEdge // calls this function makes
	In  []*CallEdge // calls made to this function
}

// CallEdge is one call site.
type CallEdge struct {
	Caller, Callee *CallNode
	Site           *ast.CallExpr
	// SitePkg is the package containing the call site (always a loaded
	// package; needed because methods resolved by CHA may be declared
	// elsewhere).
	SitePkg *ProgramPkg
	// Dynamic marks an edge added by interface-dispatch resolution:
	// the static callee was an interface method, this edge points at
	// one concrete implementation.
	Dynamic bool
}

func buildCallGraph(fset *token.FileSet, pkgs []*ProgramPkg) *CallGraph {
	g := &CallGraph{Nodes: map[string]*CallNode{}}
	node := func(fn *types.Func) *CallNode {
		id := FuncID(fn)
		n := g.Nodes[id]
		if n == nil {
			n = &CallNode{ID: id, Fn: fn}
			g.Nodes[id] = n
		}
		return n
	}

	// Pass 1: declare nodes for every source function, and collect the
	// program's concrete named types for interface resolution.
	var concrete []types.Type
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
						n := node(fn)
						n.Decl, n.Pkg, n.Fn = d, pkg, fn
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if ok && ts.Assign == token.NoPos {
							if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
								if _, isIface := tn.Type().Underlying().(*types.Interface); !isIface {
									concrete = append(concrete, tn.Type())
								}
							}
						}
					}
				}
			}
		}
	}

	// Pass 2: edges. Calls inside function literals attribute to the
	// enclosing declared function — a closure runs on behalf of its
	// owner for reachability purposes.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				caller := node(pkg.Info.Defs[fd.Name].(*types.Func))
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := staticCallee(pkg.Info, call)
					if callee == nil {
						return true
					}
					addEdges(g, node, caller, callee, call, pkg, concrete)
					return true
				})
			}
		}
	}
	return g
}

// staticCallee resolves the named function or method a call expression
// invokes, or nil for calls through plain function values, conversions
// and built-ins.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
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

// addEdges links caller → callee; an interface method fans out to every
// concrete implementation in the program (CHA).
func addEdges(g *CallGraph, node func(*types.Func) *CallNode, caller *CallNode, callee *types.Func, call *ast.CallExpr, sitePkg *ProgramPkg, concrete []types.Type) {
	link := func(cn *CallNode, dynamic bool) {
		e := &CallEdge{Caller: caller, Callee: cn, Site: call, SitePkg: sitePkg, Dynamic: dynamic}
		caller.Out = append(caller.Out, e)
		cn.In = append(cn.In, e)
	}
	sig, _ := callee.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
			// Interface dispatch: edge to the interface method itself
			// (carries the contract) plus one per implementation.
			link(node(callee), false)
			for _, t := range concrete {
				impl := implMethod(t, iface, callee.Name())
				if impl != nil {
					link(node(impl), true)
				}
			}
			return
		}
	}
	link(node(callee), false)
}

// implMethod returns t's (or *t's) method named name when t implements
// iface, else nil.
func implMethod(t types.Type, iface *types.Interface, name string) *types.Func {
	pt := types.NewPointer(t)
	if !types.Implements(t, iface) && !types.Implements(pt, iface) {
		return nil
	}
	ms := types.NewMethodSet(pt)
	for i := 0; i < ms.Len(); i++ {
		if m, ok := ms.At(i).Obj().(*types.Func); ok && m.Name() == name {
			return m
		}
	}
	return nil
}
