package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"dvsim/internal/lint/load"
)

// cases holds each rule's flagged, exempt and allowed shapes, and the
// malformed and unused directives. Each want entry is a prefix of one
// finding rendered as "line:rule: message"; a case expects exactly its
// entries, in order.
var cases = []struct {
	rule, name, path, src string
	want                  []string
}{
	{"nondeterminism", "flagged", "dvsim/internal/node", `package p

import (
	"math/rand"
	"os"
	"time"
)

func clock() time.Time { return time.Now() }

func draw() int { return rand.Intn(6) }

func gated() bool { return os.Getenv("DVSIM_FAST") != "" }
`, []string{
		"4:nondeterminism: math/rand in simulator code",
		"9:nondeterminism: wall-clock time.Now",
		"11:nondeterminism: global rand.Intn",
		"13:nondeterminism: os.Getenv gates",
	}},
	{"nondeterminism", "exempt", "dvsim/internal/node", `package p

import "time"

// Durations and methods on a time value are not reads of the clock.
func timeout(t time.Time) time.Time { return t.Add(3 * time.Second) }
`, nil},
	{"nondeterminism", "out of scope", "dvsim/cmd/dvsim", `package p

import "time"

func clock() time.Time { return time.Now() }
`, nil},
	{"nondeterminism", "allowed", "dvsim/internal/node", `package p

//lint:allow nondeterminism an explicitly seeded generator; methods on it are not global draws
import "math/rand"

func seeded() float64 { return rand.New(rand.NewSource(7)).Float64() }
`, nil},

	{"floateq", "flagged", "dvsim/internal/battery", `package p

type ticks float64

func computed(a, b float64) bool { return a+b == 1.0 }

func named(t, u ticks) bool { return t != u }
`, []string{
		"5:floateq: floating-point == comparison",
		"7:floateq: floating-point != comparison",
	}},
	{"floateq", "exempt", "dvsim/internal/battery", `package p

func sentinel(x float64) bool { return x == 0 }

func nan(x float64) bool { return x != x }

func ints(i, j int) bool { return i == j }
`, nil},
	{"floateq", "out of scope", "dvsim/internal/report", `package p

func same(a, b float64) bool { return a == b }
`, nil},
	{"floateq", "allowed", "dvsim/internal/battery", `package p

func same(a, b float64) bool {
	//lint:allow floateq identity of two stored values, never recomputed
	return a == b
}
`, nil},

	{"directive", "malformed and unused", "dvsim/internal/battery", `package p

//lint:allow
func a() {}

//lint:allow floateq
func b() {}

//lint:allow frobnicate spurious reason
func c() {}

//lint:allow floateq nothing on this line or the next compares floats
func d() {}
`, []string{
		"3:directive: //lint:allow needs a rule name and a reason",
		"6:directive: //lint:allow floateq needs a reason",
		"9:directive: //lint:allow names unknown rule frobnicate",
		"12:directive: //lint:allow floateq silences nothing on this line or the next",
	}},
}

func TestNondeterminism(t *testing.T)      { runCases(t, "nondeterminism") }
func TestFloatEq(t *testing.T)             { runCases(t, "floateq") }
func TestDirectiveValidation(t *testing.T) { runCases(t, "directive") }

// imp resolves the standard library imports of every case.
var imp = importer.Default()

// runCases type-checks each case of rule as a package at its path and
// compares Run's findings with the case's.
func runCases(t *testing.T, rule string) {
	for _, c := range cases {
		if c.rule != rule {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "p.go", c.src, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			info := &types.Info{
				Types: make(map[ast.Expr]types.TypeAndValue),
				Defs:  make(map[*ast.Ident]types.Object),
				Uses:  make(map[*ast.Ident]types.Object),
			}
			conf := types.Config{Importer: imp}
			if _, err := conf.Check(c.path, fset, []*ast.File{f}, info); err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, f := range Run([]*load.Package{{Path: c.path, Fset: fset, Files: []*ast.File{f}, Info: info}}) {
				got = append(got, fmt.Sprintf("%d:%s: %s", f.Pos.Line, f.Rule, f.Message))
			}
			match := len(got) == len(c.want)
			for i := 0; match && i < len(got); i++ {
				match = strings.HasPrefix(got[i], c.want[i])
			}
			if !match {
				t.Errorf("findings:\n%s\nwant prefixes:\n%s", strings.Join(got, "\n"), strings.Join(c.want, "\n"))
			}
		})
	}
}

// TestCleanTree is the lint step: the module must lint clean, every
// //lint:allow in it silencing a real finding.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := load.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if findings := Run(pkgs); len(findings) > 0 {
		var b strings.Builder
		for _, f := range findings {
			b.WriteString(f.String() + "\n")
		}
		t.Errorf("tree has %d lint finding(s):\n%s", len(findings), b.String())
	}
}
