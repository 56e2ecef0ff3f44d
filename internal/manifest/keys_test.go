package manifest

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvsim/internal/buildinfo"
	"dvsim/internal/core"
)

// keyOf expands a one-line manifest and returns the outcome key of its
// single experiment.
func keyOf(t *testing.T, m *Manifest) string {
	t.Helper()
	exps, err := m.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(exps) != 1 {
		t.Fatalf("%d experiments, want 1", len(exps))
	}
	k, err := exps[0].KeySpec(OutputOutcome, 0).Key()
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	return k
}

func textKey(t *testing.T, text string) string {
	t.Helper()
	return keyOf(t, load(t, text))
}

// TestKeyCanonicalJSONStable: the canonical encoding is a function of
// the spec's content, not of construction order or map iteration.
func TestKeyCanonicalJSONStable(t *testing.T) {
	exps := expand(t, "topology, stages, width\n\"wide\", 2, 3\n")
	ks := exps[0].KeySpec(OutputOutcome, 0)
	first, err := ks.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	// Shape is a map; re-encode repeatedly to shake out ordering luck.
	for i := 0; i < 16; i++ {
		again, err := exps[0].KeySpec(OutputOutcome, 0).CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("canonical JSON unstable:\n%s\n%s", first, again)
		}
	}
	if !strings.Contains(string(first), `"engine":"`+buildinfo.EngineVersion+`"`) {
		t.Fatalf("canonical JSON missing engine version: %s", first)
	}
}

// TestKeyDefaultVsExplicitZero: spelling a knob's default explicitly
// is the same simulation and must hash identically — the default
// platform by name vs. the dumped default document, the default frame
// budget vs. d = 2.3, the default rotation vs. rotation = 100.
func TestKeyDefaultVsExplicitZero(t *testing.T) {
	implicit := textKey(t, "experiment, frames\n\"2C\", 10\n")

	dir := t.TempDir()
	var doc bytes.Buffer
	if err := core.SavePlatform(&doc, core.DefaultPlatformConfig()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "itsy.json"), doc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m := load(t, "platform = \"itsy.json\"\nexperiment, frames\n\"2C\", 10\n")
	m.Resolve = inDir(dir)
	if got := keyOf(t, m); got != implicit {
		t.Errorf("explicit default platform file keyed %s, implicit default %s", got, implicit)
	}

	for _, text := range []string{
		"experiment, frames, d\n\"2C\", 10, 2.3\n",
		"experiment, frames, rotation\n\"2C\", 10, 100\n",
	} {
		if got := textKey(t, text); got != implicit {
			t.Errorf("explicit default knob keyed differently:\n%s", text)
		}
	}

	// Sanity: a knob actually changed must change the key.
	if got := textKey(t, "experiment, frames, d\n\"2C\", 10, 2.4\n"); got == implicit {
		t.Error("d=2.4 keyed identically to the default budget")
	}
}

// TestKeyScenarioPathIrrelevant: the key addresses the loaded
// scenario, not the file it came from — equal scenario content behind
// different relative paths hashes identically, and experiment 2D's
// implicit default scenario hashes like the same scenario spelled out.
func TestKeyScenarioPathIrrelevant(t *testing.T) {
	sc, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "linkdrop.json"))
	if err != nil {
		t.Skipf("repo scenario unavailable: %v", err)
	}
	keys := make([]string, 2)
	for i, name := range []string{"a.json", filepath.Join("sub", "b.json")} {
		dir := t.TempDir()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, sc, 0o644); err != nil {
			t.Fatal(err)
		}
		m := load(t, "experiment, frames, faults\n\"2\", 10, \""+filepath.ToSlash(name)+"\"\n")
		m.Resolve = inDir(dir)
		keys[i] = keyOf(t, m)
	}
	if keys[0] != keys[1] {
		t.Errorf("same scenario behind two paths keyed %s vs %s", keys[0], keys[1])
	}

	implicit := textKey(t, "experiment, frames\n\"2D\", 10\n")
	explicit := textKey(t, "experiment, frames, faults\n\"2D\", 10, \"default\"\n")
	if implicit != explicit {
		t.Errorf("2D implicit default scenario keyed %s, explicit %s", implicit, explicit)
	}
}

// TestKeyExcludesPresentation: labels name runs, they do not change
// them; sweep seeds do.
func TestKeyExcludesPresentation(t *testing.T) {
	plain := textKey(t, "experiment, frames\n\"2C\", 10\n")
	labeled := textKey(t, "experiment, frames, label\n\"2C\", 10, \"anything\"\n")
	if plain != labeled {
		t.Error("label changed the run key")
	}

	seeded, err := load(t, "experiment, frames, faults, seeds\n\"2\", 10, \"default\", \"1..2\"\n").Expand()
	if err != nil {
		t.Fatal(err)
	}
	k0, err := seeded[0].KeySpec(OutputOutcome, 0).Key()
	if err != nil {
		t.Fatal(err)
	}
	k1, err := seeded[1].KeySpec(OutputOutcome, 0).Key()
	if err != nil {
		t.Fatal(err)
	}
	if k0 == k1 {
		t.Error("two seeds of one line keyed identically")
	}
}

// TestKeyDiscriminatesOutput: the same simulation addressed as an
// outcome vs. a telemetry stream is different bytes, so different keys;
// so are different telemetry horizons.
func TestKeyDiscriminatesOutput(t *testing.T) {
	exps := expand(t, "experiment, frames\n\"1\", 10\n")
	e := exps[0]
	outcome, err := e.KeySpec(OutputOutcome, 0).Key()
	if err != nil {
		t.Fatal(err)
	}
	tele120, err := e.KeySpec(OutputTelemetry, 120).Key()
	if err != nil {
		t.Fatal(err)
	}
	tele240, err := e.KeySpec(OutputTelemetry, 240).Key()
	if err != nil {
		t.Fatal(err)
	}
	if outcome == tele120 || tele120 == tele240 {
		t.Errorf("keys fail to discriminate output kind/horizon: %s %s %s", outcome, tele120, tele240)
	}
}
