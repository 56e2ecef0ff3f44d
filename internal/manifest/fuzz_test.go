package manifest

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scenariosDir is the committed scenario tree; the fuzzed manifests
// resolve their paths from its manifests directory, like the committed
// ones.
const scenariosDir = "../../scenarios"

// FuzzManifestLoad feeds arbitrary runfiles through Load and Expand,
// seeded from the committed manifests: malformed input must come back as
// an error, never a panic. Two guards keep the fuzzer's inputs cheap and
// hermetic, and neither hides an error path: lines sweeping more than 64
// seeds are skipped (each seed is one more expanded experiment), and so
// are paths that leave the scenario tree or name anything but a regular
// file, so the fuzzer reads only committed scenario files.
func FuzzManifestLoad(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join(scenariosDir, "manifests", "*.toml"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no committed manifests to seed from (%v)", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Lines that parse but cannot run: a governor tuning value out of
	// range, a frame budget no two-node partition fits, and a setting
	// the experiment does not read.
	f.Add([]byte("experiment, governor\n\"2\", \"interval:alpha=2\"\n"))
	f.Add([]byte("experiment, d, frames\n\"2\", 0.5, 5\n"))
	f.Add([]byte("experiment, rotation\n\"1\", 5\n"))
	f.Fuzz(func(t *testing.T, text []byte) {
		m, err := Load(bytes.NewReader(text))
		if err != nil {
			return
		}
		m.Resolve = inDir(filepath.Join(scenariosDir, "manifests"))
		if !hermetic(m, m.global("platform")) {
			t.Skip("platform path outside the scenario tree")
		}
		for _, row := range m.lines {
			if seeds, err := parseSeeds(m.value(row, "seeds"), maxExperiments); err == nil && len(seeds) > 64 {
				t.Skip("wide seed sweep")
			}
			for _, key := range []string{"faults", "assert"} {
				if !hermetic(m, m.value(row, key)) {
					t.Skip("path outside the scenario tree")
				}
			}
		}
		exps, err := m.Expand()
		if err != nil {
			return
		}
		if len(exps) == 0 {
			t.Fatal("Expand returned no experiments and no error")
		}
	})
}

// hermetic reports whether a path cell is empty, or resolves to a
// regular file inside the scenario tree or to nothing at all.
func hermetic(m *Manifest, path string) bool {
	if path == "" || path == "default" {
		return true
	}
	full, _ := m.Resolve(path)
	rel, err := filepath.Rel(scenariosDir, full)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return false
	}
	fi, err := os.Stat(full)
	return err != nil || fi.Mode().IsRegular()
}
