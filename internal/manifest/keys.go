package manifest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"dvsim/internal/assert"
	"dvsim/internal/battery"
	"dvsim/internal/buildinfo"
	"dvsim/internal/core"
	"dvsim/internal/fault"
	"dvsim/internal/governor"
)

// Run outputs a cache key can address. A single simulation produces
// different artifacts depending on how it is invoked — an aggregated
// Outcome for sweep points, a telemetry JSONL stream for single runs —
// and the two are cached separately because they are different bytes.
const (
	OutputOutcome   = "outcome"
	OutputTelemetry = "telemetry"
)

// KeySpec is the canonical identity of one deterministic run: every
// input that can change its output bytes, in resolved form, and
// nothing else. The simulation service hashes it into the address of
// the run's cached artifact, so two submissions that mean the same
// simulation — a platform given by path vs. inline, a knob left at its
// default vs. spelled explicitly, a scenario file reached by two
// different relative paths — must produce the same KeySpec.
//
// That is why the spec holds loaded structures (PlatformConfig,
// fault.Scenario, assert.Spec), never file paths or raw manifest text,
// and why Experiment.KeySpec normalizes before building it:
//
//   - knobs the manifest can override per line (frame budget, governor,
//     rotation) are zeroed inside Platform and hoisted to top-level
//     fields carrying the effective value, so overriding a platform
//     file and editing the file itself hash identically;
//   - a zero-value battery means "the calibrated default" at load time,
//     so it is replaced by the default it resolves to;
//   - experiment 2D's built-in fault load is materialized when no
//     explicit scenario overrides it.
//
// Labels, sweep indices and manifest line numbers are presentation,
// not physics, and are excluded. The derived fault seed is key
// material, but it already lives inside Faults.Seed.
type KeySpec struct {
	// Engine is buildinfo.EngineVersion: bump it and every cached run
	// is invalidated at once.
	Engine string `json:"engine"`
	// Output is OutputOutcome or OutputTelemetry.
	Output string `json:"output"`
	// UntilS is the telemetry horizon in simulated seconds; zero for
	// outcome runs, which are bounded by Frames instead.
	UntilS float64 `json:"until_s,omitempty"`
	// Platform is the resolved platform document with the hoisted
	// knobs zeroed (see above).
	Platform core.PlatformConfig `json:"platform"`
	// Experiment or Topology+Shape identify what runs; exactly one.
	Experiment string         `json:"experiment,omitempty"`
	Topology   string         `json:"topology,omitempty"`
	Shape      map[string]int `json:"shape,omitempty"`
	// Rotation is the effective node-rotation period.
	Rotation int `json:"rotation,omitempty"`
	// Frames bounds the run; 0 runs to battery exhaustion.
	Frames int `json:"frames,omitempty"`
	// FrameDelayS is the effective frame budget D.
	FrameDelayS float64 `json:"frame_delay_s"`
	// Governor is the effective online-DVS selection.
	Governor governor.Spec `json:"governor"`
	// Faults is the effective fault scenario, nil for a clean wire.
	Faults *fault.Scenario `json:"faults,omitempty"`
	// Assert is the effective assertion catalog, nil when unchecked.
	Assert *assert.Spec `json:"assert,omitempty"`
}

// KeySpec builds the canonical identity of this sweep point's run.
// output selects the artifact being addressed; untilS is the telemetry
// horizon and must be zero for OutputOutcome.
func (e Experiment) KeySpec(output string, untilS float64) KeySpec {
	pc := e.Platform
	// Hoist the per-line-overridable knobs: their effective values live
	// at the top level, so the platform document must not carry a
	// second, possibly stale copy.
	pc.Governor = governor.Spec{}
	pc.FrameDelayS = 0
	pc.RotationPeriod = 0
	if pc.Battery == (battery.TwoWellParams{}) {
		pc.Battery = core.DefaultItsyBatteryParams()
	}
	ks := KeySpec{
		Engine:      buildinfo.EngineVersion,
		Output:      output,
		UntilS:      untilS,
		Platform:    pc,
		Experiment:  string(e.ID),
		Topology:    e.Kind,
		Shape:       e.Shape,
		Frames:      e.Frames,
		FrameDelayS: e.Params.FrameDelayS,
		Governor:    e.Params.Governor,
		// Experiments other than 2C ignore the rotation period, so
		// keying it over-discriminates at worst (a spurious miss, never
		// a wrong hit).
		Rotation: e.Params.RotationPeriod,
		Faults:   e.Params.Faults,
		Assert:   e.Params.Assertions,
	}
	if e.ID == core.Exp2D && ks.Faults == nil {
		ks.Faults = core.DefaultFaultScenario()
	}
	return ks
}

// CanonicalJSON renders the spec as its one canonical byte sequence:
// encoding/json emits struct fields in declaration order, sorts map
// keys, and prints floats in their shortest exact form, so equal specs
// produce equal bytes.
func (ks KeySpec) CanonicalJSON() ([]byte, error) {
	return json.Marshal(ks)
}

// Key is the content address: the hex SHA-256 of the canonical JSON.
func (ks KeySpec) Key() (string, error) {
	b, err := ks.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
