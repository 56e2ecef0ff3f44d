// Package lint is dvsim's static-analysis suite: custom analyzers that
// enforce, at compile time, the invariants the simulator's determinism
// claims rest on. Every number this repository reports — the Fig 8 and
// Table 1 reproductions, the fault and governor experiments, the exact
// event-count and allocation tests — assumes byte-identical reruns; the
// golden files catch violations dynamically and late, these analyzers
// catch the known bug classes statically, at the offending line.
//
// The analyzers are written against internal/lint/analysis, a minimal
// mirror of the golang.org/x/tools/go/analysis API, and are run by
// cmd/dvsimlint (a multichecker) over type-checked packages produced by
// internal/lint/load.
//
// A finding that is intentional is silenced in place with
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory: an allow without a justification is itself a finding.
package lint

import (
	"fmt"
	"go/token"
	"sort"

	"dvsim/internal/lint/analysis"
	"dvsim/internal/lint/load"
)

// Analyzers returns the full analyzer catalog in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Nondeterminism,
		MapRange,
		NakedGo,
		FloatEq,
	}
}

// Finding is one diagnostic attributed to its analyzer.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
}

// Options controls a driver run.
type Options struct {
	// IgnoreScope runs every analyzer on every package regardless of
	// the package-path scoping in config.go. Fixture tests use it:
	// fixture packages live outside the dvsim module path.
	IgnoreScope bool
}

// Run applies the analyzers to the packages, honoring per-analyzer
// package scopes, sanctioned-file allowlists and //lint:allow
// directives. Findings are sorted by position then analyzer.
func Run(pkgs []*load.Package, analyzers []*analysis.Analyzer, opts Options) ([]Finding, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var findings []Finding
	for _, pkg := range pkgs {
		dirs, bad := collectDirectives(pkg, known)
		findings = append(findings, bad...)
		for _, a := range analyzers {
			if !opts.IgnoreScope && !inScope(a.Name, pkg.Path) {
				continue
			}
			pass := &analysis.Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
			}
			pass.Report = func(d analysis.Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				if allowedFile(a.Name, pos.Filename) || dirs.allows(a.Name, pos) {
					return
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
