// Package analysis is a minimal, self-contained mirror of the
// golang.org/x/tools/go/analysis API surface that dvsim's analyzers are
// written against. The container builds offline against the standard
// library only, so the canonical module is unavailable; this package
// keeps the same shape (Analyzer, Pass, Diagnostic) so the analyzers
// can migrate to the upstream framework by swapping one import.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check: a named invariant and the
// function that enforces it over a single package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow directives. It must be a valid Go identifier.
	Name string

	// Doc documents the invariant the analyzer encodes. The first
	// line is the one-sentence summary printed by `dvsimlint -list`.
	Doc string

	// Run applies the analyzer to one package, reporting diagnostics
	// through pass.Report.
	Run func(*Pass) error
}

// Summary returns the first line of the analyzer's Doc.
func (a *Analyzer) Summary() string {
	for i := 0; i < len(a.Doc); i++ {
		if a.Doc[i] == '\n' {
			return a.Doc[:i]
		}
	}
	return a.Doc
}

// Pass hands an analyzer one type-checked package and a sink for
// diagnostics. Analyzers must not retain the Pass after Run returns.
type Pass struct {
	Analyzer *Analyzer

	Fset  *token.FileSet
	Files []*ast.File

	// Pkg is the type-checked package and Info its type facts
	// (Types, Defs, Uses and Selections are populated).
	Pkg  *types.Package
	Info *types.Info

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t, ok := p.Info.Types[e]; ok {
		return t.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}
