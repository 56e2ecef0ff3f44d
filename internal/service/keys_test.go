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
			"618ba750a5cc00cf2a98142be3faf6497010f2ed6c4de98b981feda3383d822f"},
		{"2C@120 rotation 50 pid", Submission{Experiment: "2C", UntilS: 120, Rotation: 50, Governor: "pid"},
			"daaa72136e0e2e828ce7548ff3044b7eca4ca199d540bf942db69664d1539a32"},
		{"2D@120 default faults", Submission{Experiment: "2D", UntilS: 120, Faults: []byte(`"default"`)},
			"cc17f060a9dbdd5f1793491f06c9d73bbe8eeb3e0aab2baaf210f9eac001e878"},
		{"3A@120 pid", Submission{Experiment: "3A", UntilS: 120, Governor: "pid"},
			"714b05c70713439c1d43446f262632ed9e6fc3ea4ed9c2cd27c60c733768f812"},
		{"2@120 inline platform", Submission{Experiment: "2", UntilS: 120, Platform: &pc},
			"e1dbaad9b34c4c858bcbfb500a480d7bdca3a230c47293f9f9f61d48e936a608"},
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

// TestUnreadRotationKeysNothing: a platform's rotation period reaches
// the key only of a run that reads it. Experiment 1 keys the same with
// no platform and with a default platform whose period is 50; 2C keys
// the two apart.
func TestUnreadRotationKeysNothing(t *testing.T) {
	s := &Server{}
	pc := core.DefaultPlatformConfig()
	pc.RotationPeriod = 50
	for _, c := range []struct {
		exp  string
		same bool
	}{{"1", true}, {"2C", false}} {
		plain, err := s.resolve(Submission{Experiment: c.exp, UntilS: 120})
		if err != nil {
			t.Fatal(err)
		}
		rotated, err := s.resolve(Submission{Experiment: c.exp, UntilS: 120, Platform: &pc})
		if err != nil {
			t.Fatal(err)
		}
		if same := plain.key == rotated.key; same != c.same {
			t.Errorf("experiment %s: keys %s and %s; want equal %v", c.exp, plain.key, rotated.key, c.same)
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
