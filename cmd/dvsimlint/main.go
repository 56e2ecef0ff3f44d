// Command dvsimlint is the multichecker for dvsim's custom static
// analyzers: it type-checks the requested packages and enforces the
// determinism and concurrency invariants the simulator's goldens and
// benchmarks rely on (see internal/lint and DESIGN.md §"Static
// analysis & invariants"). Each analyzer checks one package at a time;
// the nondeterminism analyzer also keeps simulator packages from
// importing module packages it does not check.
//
// Usage:
//
//	go run ./cmd/dvsimlint ./...            # lint the module (CI gate)
//	go run ./cmd/dvsimlint -list            # print the analyzer catalog
//	go run ./cmd/dvsimlint ./internal/sim ./internal/node
//
// dvsimlint exits non-zero when any finding remains. Intentional
// violations are silenced in place with a justified directive:
//
//	//lint:allow <analyzer> <reason>
//
// dvsimlint checks source only. Allocation on the hot paths is gated
// at run time by internal/core's TestAllocsPerRun, whose bounds are the
// exact measured counts (DESIGN.md §9).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dvsim/internal/lint"
	"dvsim/internal/lint/load"
)

func main() {
	list := flag.Bool("list", false, "print the analyzer catalog and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dvsimlint [flags] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Summary())
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	modRoot, err := os.Getwd()
	if err != nil {
		fatal(err)
	}

	pkgs, err := load.Load(modRoot, patterns...)
	if err != nil {
		fatal(err)
	}
	findings, err := lint.Run(pkgs, analyzers, lint.Options{})
	if err != nil {
		fatal(err)
	}

	for _, f := range findings {
		f.Pos.Filename = relTo(modRoot, f.Pos.Filename)
		fmt.Println(f)
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(os.Stderr, "dvsimlint: %d finding(s) in %d package(s)\n", n, len(pkgs))
		os.Exit(1)
	}
}

// relTo shortens path relative to root for readable diagnostics.
func relTo(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dvsimlint:", err)
	os.Exit(2)
}
