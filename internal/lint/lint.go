// Package lint holds the static checks that no output check replaces.
// The goldens, determinism tests and CI cmp smokes check the bytes every
// run writes; a rule stays here only where planting its fault in the
// tree failed none of them (DESIGN.md §9 has the survey):
//
//   - nondeterminism: an os.Getenv gate changes nothing while the
//     variable is unset, which it is in every test;
//   - floateq: an exact float comparison can hold on every tested input
//     and still be the wrong test.
//
// A map range feeding output has no rule of its own: the one such
// fault no test caught, the Markdown comparison table's rows written
// from a map, now fails that table's golden in internal/report.
//
// Run applies them to type-checked packages; TestCleanTree runs them
// over the module, so `go test ./internal/lint` is the lint step. A
// finding that is intentional is silenced in place with
//
//	//lint:allow <rule> <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory, and a directive that silences nothing is itself a finding,
// so mending a line or retiring a rule cannot leave a stale one behind.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"dvsim/internal/lint/load"
)

// rules lists each check with the packages it covers: nondeterminism
// everything under internal/, so every module package a simulator
// package can import is checked too; floateq the packages doing the
// simulator's continuous-quantity math.
var rules = []struct {
	name  string
	scope func(pkgPath string) bool
	check func(pkg *load.Package, report func(token.Pos, string))
}{
	{"nondeterminism", func(p string) bool { return strings.HasPrefix(p, "dvsim/internal/") }, nondeterminism},
	{"floateq", func(p string) bool {
		switch p {
		case "dvsim/internal/sim", "dvsim/internal/node", "dvsim/internal/battery",
			"dvsim/internal/cpu", "dvsim/internal/governor":
			return true
		}
		return false
	}, floatEq},
}

// Finding is one diagnostic attributed to its rule, or to "directive"
// for a malformed or unused //lint:allow.
type Finding struct {
	Rule    string
	Pos     token.Position
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Rule)
}

// Run applies every rule to the packages in its scope and returns the
// findings no directive silences, with the directive findings, sorted
// by position then rule.
func Run(pkgs []*load.Package) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		allows, bad := directives(pkg)
		findings = append(findings, bad...)
		for _, r := range rules {
			if !r.scope(pkg.Path) {
				continue
			}
			r.check(pkg, func(pos token.Pos, msg string) {
				p := pkg.Fset.Position(pos)
				if !allows.silence(r.name, p) {
					findings = append(findings, Finding{Rule: r.name, Pos: p, Message: msg})
				}
			})
		}
		for _, a := range allows {
			if !a.used {
				findings = append(findings, Finding{Rule: "directive", Pos: a.pos,
					Message: "//lint:allow " + a.rule + " silences nothing on this line or the next"})
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
		return a.Rule < b.Rule
	})
	return findings
}
