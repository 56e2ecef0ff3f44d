package service

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvsim/internal/battery"
	"dvsim/internal/core"
	"dvsim/internal/manifest"
)

// TestCacheKeysPinned: the cache keys of the serve working set's
// envelopes, of envelopes that set each knob, and of the tree-scaling
// sweep are fixed hex values. A change to how a submission resolves
// must not move a key, or every cached artifact is orphaned.
func TestCacheKeysPinned(t *testing.T) {
	s := &Server{cfg: Config{ScenarioDir: filepath.Join("..", "..", "scenarios")}}
	tree, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "manifests", "tree_scaling.toml"))
	if err != nil {
		t.Fatal(err)
	}
	pc := core.DefaultPlatformConfig()
	pc.FrameDelayS = 3
	pc.Battery = battery.TwoWellParams{}
	for _, c := range []struct {
		name string
		sub  Submission
		key  string
	}{
		{"1@120", Submission{Experiment: "1", UntilS: 120},
			"d79e3a24ae364cc49f7e43f03b009eddc154ce97e0a42898d7eb4eba7c251123"},
		{"2C@120 rotation 50 pid", Submission{Experiment: "2C", UntilS: 120, Rotation: 50, Governor: "pid"},
			"daaa72136e0e2e828ce7548ff3044b7eca4ca199d540bf942db69664d1539a32"},
		{"2D@120 default faults", Submission{Experiment: "2D", UntilS: 120, Faults: []byte(`"default"`)},
			"6786f9bf7a3f20714fac6f22df4c80813478682f5405bb4a40abd207f1bb7b03"},
		{"3A@120 pid", Submission{Experiment: "3A", UntilS: 120, Governor: "pid"},
			"4f1a3860b6ae0ca61623b611d0b21ce624d1de42ebe3fe4fe35176b36b10df78"},
		{"2@120 inline platform", Submission{Experiment: "2", UntilS: 120, Platform: &pc},
			"d8352a4847515f1a565f2d3b310968ba749edc83731f8ee24ddb97e2712164fb"},
		{"tree_scaling", Submission{Manifest: string(tree)},
			"7e8db130d1daadf734ac5df3433d1fef26d710c3e9413ea45a17cc730dfa0f28"},
	} {
		res, err := s.resolve(c.sub)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if res.key != c.key {
			t.Errorf("%s: key %s, want %s", c.name, res.key, c.key)
		}
	}
}

// TestEnvelopeKeyMatchesRunfileLine: an envelope and the one-line
// runfile that spells the same run resolve to the same run identity;
// only the artifact (telemetry window vs. outcome) differs.
func TestEnvelopeKeyMatchesRunfileLine(t *testing.T) {
	s := &Server{cfg: Config{ScenarioDir: filepath.Join("..", "..", "scenarios")}}
	for _, c := range []struct {
		sub     Submission
		runfile string
	}{
		{Submission{Experiment: "1"}, "experiment\n\"1\"\n"},
		{Submission{Experiment: "2C", Rotation: 50, Governor: "pid"},
			"experiment, rotation, governor\n\"2C\", 50, \"pid\"\n"},
		{Submission{Experiment: "2D", Faults: []byte(`"default"`)},
			"experiment, faults\n\"2D\", \"default\"\n"},
		{Submission{Experiment: "2", D: 2.5, Faults: []byte(`"linkdrop.json"`), Assert: []byte(`"assertions/catalog.json"`)},
			"experiment, d, faults, assert\n\"2\", 2.5, \"linkdrop.json\", \"assertions/catalog.json\"\n"},
		{Submission{Experiment: "3A", Governor: "buffer:hi=3"},
			"experiment, governor\n\"3A\", \"buffer:hi=3\"\n"},
	} {
		res, err := s.resolve(c.sub)
		if err != nil {
			t.Fatalf("envelope %+v: %v", c.sub, err)
		}
		m, err := manifest.Load(strings.NewReader(c.runfile))
		if err != nil {
			t.Fatal(err)
		}
		m.Resolve = s.scenarioPath
		exps, err := m.Expand()
		if err != nil {
			t.Fatalf("runfile %q: %v", c.runfile, err)
		}
		env, err := res.run.KeySpec(manifest.OutputOutcome, 0).CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		line, err := exps[0].KeySpec(manifest.OutputOutcome, 0).CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(env, line) {
			t.Errorf("envelope %+v and runfile %q differ:\n%s\n%s", c.sub, c.runfile, env, line)
		}
	}
}
