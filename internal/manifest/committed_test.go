package manifest

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dvsim/internal/core"
	"dvsim/internal/report"
)

// repoManifest loads a manifest committed under scenarios/manifests.
func repoManifest(t *testing.T, name string) []Experiment {
	t.Helper()
	m, err := LoadFile(filepath.Join("..", "..", "scenarios", "manifests", name))
	if err != nil {
		t.Fatal(err)
	}
	exps, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return exps
}

// TestCommittedManifestsExpand: every manifest shipped with the
// repository parses, expands, and meets its advertised scale.
func TestCommittedManifestsExpand(t *testing.T) {
	serial := repoManifest(t, "serial_sweep.toml")
	if len(serial) < 100 {
		t.Fatalf("serial sweep expands to %d experiments, want ≥ 100", len(serial))
	}
	nodes := 0
	for _, e := range serial {
		nodes += e.Nodes
	}
	if nodes < 1000 {
		t.Fatalf("serial sweep covers %d simulated nodes, want ≥ 1000", nodes)
	}

	tree := repoManifest(t, "tree_scaling.toml")
	if len(tree) == 0 {
		t.Fatal("tree manifest expanded to nothing")
	}
	for _, e := range tree {
		if e.Kind != "tree" {
			t.Fatalf("tree manifest produced a %q line", e.Kind)
		}
	}

	mesh := repoManifest(t, "mesh_faults.toml")
	fromFile := 0
	for _, e := range mesh {
		if e.Seeded && e.Params.Faults == nil {
			t.Fatalf("seeded mesh line %d has no scenario", e.Line)
		}
		if e.Label == "mesh-12x3-linkdrop seed=1" {
			fromFile++
			if len(e.Params.Faults.Links) == 0 {
				t.Fatal("scenario loaded from ../linkdrop.json lost its link faults")
			}
		}
	}
	if fromFile != 1 {
		t.Fatal("relative-path scenario line missing from the mesh expansion")
	}
}

// TestPaperManifestReproducesGoldens is the keystone: the paper's
// experiments expressed as degenerate manifest lines drive exactly the
// same simulations as the committed goldens — telemetry streams byte
// for byte, outcomes structurally, the governor-study table byte for
// byte. A diff here means the manifest layer changed what runs.
func TestPaperManifestReproducesGoldens(t *testing.T) {
	exps := repoManifest(t, "paper.toml")
	byID := make(map[core.ID][]Experiment)
	for _, e := range exps {
		byID[e.ID] = append(byID[e.ID], e)
	}

	for id, golden := range map[core.ID]string{
		core.Exp1:  "telemetry_1.jsonl",
		core.Exp2C: "telemetry_2C.jsonl",
		core.Exp2D: "telemetry_2D.jsonl",
	} {
		lines := byID[id]
		if len(lines) != 1 {
			t.Fatalf("paper manifest has %d lines for experiment %s, want 1", len(lines), id)
		}
		var buf bytes.Buffer
		spec := core.Spec{ID: id, Params: lines[0].Params, UntilS: 120}
		if _, err := core.Simulate(context.Background(), spec, core.Sinks{Log: &buf, Telemetry: true}); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "core", "testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("experiment %s via the manifest diverged from %s", id, golden)
		}
	}

	// Experiment 2's bounded manifest run is the direct library call.
	e2 := byID[core.Exp2][0]
	direct, err := core.Simulate(context.Background(), core.Spec{ID: core.Exp2, Params: core.DefaultParams(), Frames: 120}, core.Sinks{})
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.Run(); !reflect.DeepEqual(got, direct) {
		t.Error("experiment 2 via the manifest diverged from the direct run")
	}

	// The four 3A lines, in manifest order, regenerate the committed
	// governor-study table.
	lines3A := byID[core.Exp3A]
	if len(lines3A) != 4 {
		t.Fatalf("paper manifest has %d 3A lines, want 4", len(lines3A))
	}
	outs := make([]core.Outcome, len(lines3A))
	for i, e := range lines3A {
		outs[i] = e.Run()
	}
	want, err := os.ReadFile(filepath.Join("..", "report", "testdata", "governor_csv.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := report.GovernorCSV(outs); got != string(want) {
		t.Errorf("3A via the manifest diverged from governor_csv.golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestFleetManifestGoldens pins the graph engine: the committed tree
// and mesh manifests aggregate to their goldens byte for byte, CSV and
// JSONL alike (dvsim -manifest … -agg-csv … -agg-jsonl …).
func TestFleetManifestGoldens(t *testing.T) {
	for _, name := range []string{"tree_scaling", "mesh_faults"} {
		results := RunAll(repoManifest(t, name+".toml"), 0)
		var jsonl strings.Builder
		if err := WriteJSONL(&jsonl, results); err != nil {
			t.Fatal(err)
		}
		for ext, got := range map[string]string{".csv": CSV(results), ".jsonl": jsonl.String()} {
			want, err := os.ReadFile(filepath.Join("testdata", name+ext))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s aggregate drifted from testdata/%s%s.\n--- got ---\n%s\n--- want ---\n%s", name, name, ext, got, want)
			}
		}
	}
}
