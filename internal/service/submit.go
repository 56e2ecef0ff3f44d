package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"

	"dvsim/internal/assert"
	"dvsim/internal/core"
	"dvsim/internal/fault"
	"dvsim/internal/governor"
	"dvsim/internal/manifest"
)

// Submission is the wire form of a run request: either one paper
// experiment streamed as telemetry, or an inline manifest sweep
// aggregated server-side. Exactly one of Experiment and Manifest is
// set.
//
// Everything resolves on the server — a platform document is inline or
// defaulted, fault scenarios and assertion catalogs are inline objects
// or names resolved against the server's scenario root — and the
// resolved forms, not the request text, feed the cache key. Two
// clients spelling the same run differently get the same entry.
type Submission struct {
	// Experiment names a single run (0A … 2D, 3A); its output is the
	// telemetry JSONL stream over the first UntilS simulated seconds
	// (0 = the dvsim default of 30 h, past every battery death).
	Experiment string  `json:"experiment,omitempty"`
	UntilS     float64 `json:"until_s,omitempty"`
	// Manifest is runfile text (see MANIFESTS.md); its output is the
	// aggregated sweep CSV, one row per expanded line.
	Manifest string `json:"manifest,omitempty"`
	// Platform overrides the calibrated Itsy defaults, inline.
	Platform *core.PlatformConfig `json:"platform,omitempty"`
	// Governor is a dvsim -governor spec: NAME[:key=value,...].
	Governor string `json:"governor,omitempty"`
	// Faults and Assert take an inline JSON object, or a JSON string
	// naming a file under the server's scenario root ("default" selects
	// the built-in scenario, as in manifests).
	Faults json.RawMessage `json:"faults,omitempty"`
	Assert json.RawMessage `json:"assert,omitempty"`
	// Rotation overrides the rotation period (experiment 2C).
	Rotation int `json:"rotation,omitempty"`
	// D overrides the frame budget in seconds.
	D float64 `json:"d,omitempty"`
	// Priority is "interactive" (default) or "bulk".
	Priority string `json:"priority,omitempty"`
}

// defaultTelemetryWindowS mirrors dvsim -until 0: 30 simulated hours,
// past every battery death.
const defaultTelemetryWindowS = 30 * 3600

// resolved is a submission after server-side resolution: the cache key
// plus everything a worker needs to produce the artifact.
type resolved struct {
	key      string
	kind     string // "run" or "sweep"
	desc     string
	priority Priority

	// Single run:
	spec core.Spec

	// Sweep:
	exps []manifest.Experiment
}

// resolve validates a submission against the server's scenario root
// and computes its cache key. All errors are client errors (HTTP 400).
func (s *Server) resolve(sub Submission) (*resolved, error) {
	prio, err := ParsePriority(sub.Priority)
	if err != nil {
		return nil, err
	}
	switch {
	case sub.Experiment != "" && sub.Manifest != "":
		return nil, fmt.Errorf("experiment %q and manifest are mutually exclusive", sub.Experiment)
	case sub.Experiment == "" && sub.Manifest == "":
		return nil, fmt.Errorf("a submission needs an experiment or a manifest")
	}

	if sub.Manifest != "" {
		if sub.Platform != nil || sub.Governor != "" || sub.Faults != nil ||
			sub.Assert != nil || sub.Rotation != 0 || sub.D != 0 || sub.UntilS != 0 {
			return nil, fmt.Errorf("manifest submissions configure runs in the runfile, not the envelope")
		}
		// A sweep is bulk work unless the submitter says otherwise.
		if sub.Priority == "" {
			prio = Bulk
		}
		m, err := manifest.Load(strings.NewReader(sub.Manifest))
		if err != nil {
			return nil, err
		}
		m.Dir = s.cfg.ScenarioDir
		exps, err := m.Expand()
		if err != nil {
			return nil, err
		}
		key, err := sweepKey(exps)
		if err != nil {
			return nil, err
		}
		return &resolved{
			key:      key,
			kind:     "sweep",
			desc:     fmt.Sprintf("manifest sweep, %d run(s)", len(exps)),
			priority: prio,
			exps:     exps,
		}, nil
	}

	id := core.ID(sub.Experiment)
	if !validExperiment(id) {
		return nil, fmt.Errorf("unknown experiment %q", sub.Experiment)
	}
	pc := core.DefaultPlatformConfig()
	if sub.Platform != nil {
		pc = *sub.Platform
	}
	p, err := pc.Params()
	if err != nil {
		return nil, err
	}
	if sub.D < 0 {
		return nil, fmt.Errorf("d must be positive, got %g", sub.D)
	}
	if sub.D > 0 {
		p.FrameDelayS = sub.D
	}
	if sub.Rotation < 0 {
		return nil, fmt.Errorf("rotation must be positive, got %d", sub.Rotation)
	}
	if sub.Rotation > 0 {
		p.RotationPeriod = sub.Rotation
	}
	if sub.Governor != "" {
		spec, err := governor.ParseSpec(sub.Governor)
		if err != nil {
			return nil, err
		}
		if _, err := spec.New(); err != nil {
			return nil, err
		}
		p.Governor = spec
	}
	if sub.Faults != nil {
		sc, err := s.resolveFaults(sub.Faults)
		if err != nil {
			return nil, err
		}
		p.Faults = sc
	}
	if sub.Assert != nil {
		spec, err := s.resolveAssert(sub.Assert)
		if err != nil {
			return nil, err
		}
		p.Assertions = spec
	}
	if id == core.Exp3A && !p.Governor.Enabled() {
		return nil, fmt.Errorf("experiment 3A needs a governor")
	}
	until := sub.UntilS
	if until < 0 {
		return nil, fmt.Errorf("until_s must be positive, got %g", until)
	}
	if until == 0 {
		until = defaultTelemetryWindowS
	}

	e := manifest.Experiment{
		ID:       id,
		Nodes:    manifest.ExperimentNodes(id),
		Params:   p,
		Platform: pc,
	}
	key, err := e.KeySpec(manifest.OutputTelemetry, until).Key()
	if err != nil {
		return nil, err
	}
	return &resolved{
		key:      key,
		kind:     "run",
		desc:     fmt.Sprintf("exp %s, %.0f s telemetry", id, until),
		priority: prio,
		spec:     core.Spec{ID: id, Params: p, UntilS: until},
	}, nil
}

// sweepKey derives a whole sweep's cache key from its per-line run
// keys: the aggregated artifact is a pure function of the ordered line
// outputs plus the presentation fields a line key excludes (labels,
// seed tokens), so those come back in here.
func sweepKey(exps []manifest.Experiment) (string, error) {
	type lineID struct {
		Key   string `json:"key"`
		Label string `json:"label"`
		Line  int    `json:"line"`
		Seed  string `json:"seed,omitempty"`
	}
	ids := make([]lineID, len(exps))
	for i, e := range exps {
		k, err := e.KeySpec(manifest.OutputOutcome, 0).Key()
		if err != nil {
			return "", err
		}
		ids[i] = lineID{Key: k, Label: e.Label, Line: e.Line}
		if e.Seeded {
			ids[i].Seed = fmt.Sprint(e.Seed)
		}
	}
	var b bytes.Buffer
	b.WriteString("sweep:")
	if err := json.NewEncoder(&b).Encode(ids); err != nil {
		return "", err
	}
	return hashBytes(b.Bytes()), nil
}

// resolveFaults turns the faults field into a validated scenario: a
// JSON string is "default" or a path under the scenario root; an
// object is an inline scenario.
func (s *Server) resolveFaults(raw json.RawMessage) (*fault.Scenario, error) {
	if name, ok := asString(raw); ok {
		if name == "default" {
			return core.DefaultFaultScenario(), nil
		}
		path, err := s.scenarioPath(name)
		if err != nil {
			return nil, err
		}
		return fault.LoadFile(path)
	}
	return fault.Load(bytes.NewReader(raw))
}

// resolveAssert does the same for assertion catalogs.
func (s *Server) resolveAssert(raw json.RawMessage) (*assert.Spec, error) {
	if name, ok := asString(raw); ok {
		path, err := s.scenarioPath(name)
		if err != nil {
			return nil, err
		}
		return assert.LoadFile(path)
	}
	return assert.Load(bytes.NewReader(raw))
}

// scenarioPath confines by-name references to the server's scenario
// root: no absolute paths, no escaping "..".
func (s *Server) scenarioPath(name string) (string, error) {
	if s.cfg.ScenarioDir == "" {
		return "", fmt.Errorf("server has no scenario root; submit the document inline")
	}
	if filepath.IsAbs(name) || name != filepath.ToSlash(filepath.Clean(name)) ||
		name == ".." || strings.HasPrefix(name, "../") {
		return "", fmt.Errorf("scenario reference %q must be a clean path under the scenario root", name)
	}
	return filepath.Join(s.cfg.ScenarioDir, filepath.FromSlash(name)), nil
}

// asString reports whether raw is a JSON string, returning its value.
func asString(raw json.RawMessage) (string, bool) {
	var v string
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", false
	}
	return v, true
}

func validExperiment(id core.ID) bool {
	if id == core.Exp3A {
		return true
	}
	for _, known := range core.AllExperiments {
		if id == known {
			return true
		}
	}
	return false
}
