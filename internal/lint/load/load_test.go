package load_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvsim/internal/lint/load"
)

// modRoot walks up from the test's working directory to the dvsim
// module root.
func modRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// write creates a file under root, making parent directories.
func write(t *testing.T, root, rel, content string) {
	t.Helper()
	path := filepath.Join(root, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadMissingPackage: a pattern that matches nothing must surface
// the go list error, not silently analyze zero packages.
func TestLoadMissingPackage(t *testing.T) {
	_, err := load.Load(modRoot(t), "./does/not/exist")
	if err == nil {
		t.Fatal("expected an error for a nonexistent package pattern")
	}
}

// TestLoadTypeError: a target that does not type-check must fail the
// load with the checker's diagnosis, since analyzers require full type
// information.
func TestLoadTypeError(t *testing.T) {
	tmp := t.TempDir()
	write(t, tmp, "go.mod", "module scratch\n\ngo 1.22\n")
	write(t, tmp, "broken.go", "package scratch\n\nfunc f() int { return \"not an int\" }\n")
	_, err := load.Load(tmp, "./...")
	if err == nil {
		t.Fatal("expected a type-check error")
	}
	if !strings.Contains(err.Error(), "type-checking") {
		t.Errorf("error should come from the type-check stage, got: %v", err)
	}
}

// TestLoadVendoredImport: a module with a vendor tree must load with
// imports resolved through it — the offline export-data pipeline and
// -mod=vendor must compose.
func TestLoadVendoredImport(t *testing.T) {
	tmp := t.TempDir()
	write(t, tmp, "go.mod", "module scratch\n\ngo 1.22\n\nrequire example.com/dep v0.0.0\n")
	write(t, tmp, "use.go", "package scratch\n\nimport \"example.com/dep\"\n\nfunc use() int { return dep.Answer() }\n")
	write(t, tmp, "vendor/modules.txt", "# example.com/dep v0.0.0\n## explicit; go 1.22\nexample.com/dep\n")
	write(t, tmp, "vendor/example.com/dep/dep.go", "package dep\n\n// Answer is the vendored dependency's export.\nfunc Answer() int { return 42 }\n")
	pkgs, err := load.Load(tmp, "./...")
	if err != nil {
		t.Fatalf("vendored load failed: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "scratch" {
		t.Fatalf("want the one scratch package, got %d: %+v", len(pkgs), pkgs)
	}
	if pkgs[0].Types.Scope().Lookup("use") == nil {
		t.Error("type info missing the function that uses the vendored import")
	}
}
