// Package load turns Go package patterns into parsed, type-checked
// packages for the lint rules, using only the standard library and the
// go tool. Dependency types come from compiled export data: `go list
// -export -deps` compiles every dependency into the build cache and
// reports the export file per package, and go/importer's gc mode reads
// those files back. The whole pipeline is offline — no module proxy,
// no network. Type-checking the standard library from source instead
// takes about ten times as long.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listEntry is the subset of `go list -json` output the loader needs.
type listEntry struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Incomplete bool
	Error      *struct{ Err string }
}

// goList runs `go list` in dir with the given arguments and decodes the
// JSON stream.
func goList(dir string, args ...string) ([]listEntry, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var entries []listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %s: decoding output: %v", strings.Join(args, " "), err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// exportLookup builds the import-path → export-file map for everything
// reachable from the given patterns, compiling as needed.
func exportLookup(modRoot string, patterns []string) (map[string]string, error) {
	args := append([]string{"-e", "-export", "-deps", "-json=ImportPath,Export"}, patterns...)
	entries, err := goList(modRoot, args...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(entries))
	for _, e := range entries {
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
	}
	return exports, nil
}

// newImporter returns a types.Importer backed by the export map.
func newImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(f)
	})
}

// check parses and type-checks one package's files.
func check(fset *token.FileSet, imp types.Importer, path, dir string, files []string) (*Package, error) {
	pkg := &Package{Path: path, Fset: fset}
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	pkg.Info = &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %v", path, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}

// Load lists, parses and type-checks the packages matched by patterns,
// resolved relative to modRoot (the module root directory). Test files
// are not included: the lint rules guard the simulator's production
// paths, and _test.go files live outside the compiled package graph the
// export-data importer reconstructs.
func Load(modRoot string, patterns ...string) ([]*Package, error) {
	targets, err := goList(modRoot, append([]string{"-json=ImportPath,Dir,GoFiles,Incomplete,Error"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports, err := exportLookup(modRoot, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := newImporter(fset, exports)
	var pkgs []*Package
	for _, t := range targets {
		if t.Incomplete || t.Error != nil {
			msg := "unknown error"
			if t.Error != nil {
				msg = t.Error.Err
			}
			return nil, fmt.Errorf("load: package %s: %s", t.ImportPath, msg)
		}
		if len(t.GoFiles) == 0 {
			continue // test-only or empty package
		}
		pkg, err := check(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}
