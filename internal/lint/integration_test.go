package lint_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dvsim/internal/lint"
	"dvsim/internal/lint/linttest"
	"dvsim/internal/lint/load"
)

// TestMulticheckerKnownBad runs the full analyzer catalog over the
// knownbad fixture and asserts the exact diagnostic set — one specimen
// per analyzer, nothing more, nothing missing.
func TestMulticheckerKnownBad(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "knownbad"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := load.LoadDir(linttest.ModRoot(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.Run([]*load.Package{pkg}, lint.Analyzers(), lint.Options{IgnoreScope: true})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s:%d:%s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Analyzer))
	}
	want := []string{
		"knownbad.go:8:nondeterminism",  // math/rand import
		"knownbad.go:14:nondeterminism", // time.Now
		"knownbad.go:16:nondeterminism", // global rand.Intn
		"knownbad.go:20:maprange",       // fmt.Println in range over map
		"knownbad.go:24:nakedgo",        // raw go statement
		"knownbad.go:26:floateq",        // a == b on float64
		"knownbad.go:30:eventreuse",     // Bind on an At result
		"knownbad.go:33:nondetflow",     // call into a wall-clock-tainted helper
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("diagnostic set mismatch:\n got  %v\n want %v\nfull findings:\n%s",
			got, want, findingDump(findings))
	}
}

// TestDirectiveValidation asserts that malformed //lint:allow
// directives are themselves findings.
func TestDirectiveValidation(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "baddirective"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := load.LoadDir(linttest.ModRoot(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.Run([]*load.Package{pkg}, lint.Analyzers(), lint.Options{IgnoreScope: true})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		if f.Analyzer != "directive" {
			t.Errorf("unexpected non-directive finding: %s", f)
			continue
		}
		got = append(got, fmt.Sprintf("%d:%s", f.Pos.Line, f.Message))
	}
	want := []string{
		"6://lint:allow needs an analyzer name and a reason",
		"9://lint:allow floateq needs a reason",
		"12://lint:allow names unknown analyzer frobnicate",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("directive findings mismatch:\n got  %v\n want %v", got, want)
	}
}

// TestCleanTree is the in-repo regression gate behind the CI lint job:
// the committed tree must lint clean, so any new violation fails go
// test as well as dvsimlint.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := load.Load(linttest.ModRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.Run(pkgs, lint.Analyzers(), lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) > 0 {
		t.Errorf("tree has %d lint finding(s):\n%s", len(findings), findingDump(findings))
	}
}

func findingDump(fs []lint.Finding) string {
	var sb strings.Builder
	for _, f := range fs {
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
