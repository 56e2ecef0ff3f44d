package lint

import (
	"go/token"
	"strings"

	"dvsim/internal/lint/load"
)

// allow is one well-formed //lint:allow directive. It silences its
// rule's findings on its own line and on the line below it.
type allow struct {
	pos  token.Position
	rule string
	used bool
}

type allows []*allow

// silence reports whether a directive covers a finding of rule at pos,
// marking every directive that does as used.
func (as allows) silence(rule string, pos token.Position) bool {
	silenced := false
	for _, a := range as {
		if a.rule == rule && a.pos.Filename == pos.Filename && (a.pos.Line == pos.Line || a.pos.Line == pos.Line-1) {
			a.used, silenced = true, true
		}
	}
	return silenced
}

// directives collects a package's //lint:allow directives. Malformed
// ones — a missing rule, an unknown rule, or no reason — are returned
// as findings: a suppression that silences nothing, or everything, is
// its own bug.
func directives(pkg *load.Package) (allows, []Finding) {
	var as allows
	var bad []Finding
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				msg := ""
				switch {
				case len(fields) == 0:
					msg = "//lint:allow needs a rule name and a reason"
				case !known(fields[0]):
					msg = "//lint:allow names unknown rule " + fields[0]
				case len(fields) < 2:
					msg = "//lint:allow " + fields[0] + " needs a reason"
				default:
					as = append(as, &allow{pos: pos, rule: fields[0]})
					continue
				}
				bad = append(bad, Finding{Rule: "directive", Pos: pos, Message: msg})
			}
		}
	}
	return as, bad
}

// known reports whether name is a rule of this package.
func known(name string) bool {
	for _, r := range rules {
		if r.name == name {
			return true
		}
	}
	return false
}
