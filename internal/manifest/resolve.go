package manifest

import (
	"fmt"
	"math"

	"dvsim/internal/assert"
	"dvsim/internal/core"
	"dvsim/internal/fault"
	"dvsim/internal/governor"
)

// Settings are the knobs a run sets, parsed from a front end's own
// syntax: runfile cells, dvsimd envelope fields or dvsim flags.
// Governor is in dvsim -governor form. A zero field is not set: it
// keeps the platform's value, or for Frames runs to exhaustion.
type Settings struct {
	D        float64
	Rotation int
	Governor string
	Faults   *fault.Scenario
	Assert   *assert.Spec
	Frames   int
}

// Check refuses a setting that none of the experiments reads
// (core.CheckSettings). Every front end calls it: dvsim with the
// experiments its flags reach, and Resolve with a runfile line's or an
// envelope's one experiment.
func (s Settings) Check(ids ...core.ID) error {
	var set core.Setting
	for _, f := range []struct {
		on bool
		s  core.Setting
	}{
		{s.D != 0, core.FrameDelay},
		{s.Rotation != 0, core.Rotation},
		{s.Governor != "", core.Governor},
		{s.Faults != nil, core.Faults},
		{s.Assert != nil, core.Assertions},
		{s.Frames != 0, core.Frames},
	} {
		if f.on {
			set |= f.s
		}
	}
	return core.CheckSettings(set, ids...)
}

// Apply returns p with the platform settings applied (all but Frames),
// or the first one out of range.
func (s Settings) Apply(p core.Params) (core.Params, error) {
	if s.D < 0 || math.IsNaN(s.D) || math.IsInf(s.D, 0) {
		return p, fmt.Errorf("d must be positive and finite, got %g", s.D)
	}
	if s.Rotation < 0 {
		return p, fmt.Errorf("rotation must be positive, got %d", s.Rotation)
	}
	if s.D > 0 {
		p.FrameDelayS = s.D
	}
	if s.Rotation > 0 {
		p.RotationPeriod = s.Rotation
	}
	if s.Governor != "" {
		g, err := governor.ParseSpec(s.Governor)
		if err != nil {
			return p, err
		}
		p.Governor = g
	}
	if s.Faults != nil {
		p.Faults = s.Faults
	}
	if s.Assert != nil {
		p.Assertions = s.Assert
	}
	return p, nil
}

// Resolve applies the settings to the experiment's base platform and
// checks the run with core, so an experiment that resolves cannot fail
// on its spec when it runs. It resolves runfile lines and dvsimd
// envelopes alike; e names the system (ID, or Kind, Graph and Shape).
// A paper experiment refuses a setting it does not read. A topology
// reads them all, and rotates only when the settings ask it to: the
// platform's default period belongs to experiment 2C.
func (e *Experiment) Resolve(s Settings) error {
	if e.Graph == nil {
		if err := s.Check(e.ID); err != nil {
			return err
		}
	}
	p, err := s.Apply(e.Params)
	if err != nil {
		return err
	}
	if e.Graph != nil {
		e.Nodes = len(e.Graph.Nodes)
		p.RotationPeriod = s.Rotation
	} else {
		e.Nodes = e.ID.Nodes()
	}
	e.Params, e.Frames = p, s.Frames
	return e.Spec().Check()
}

// Spec is the core run the experiment describes.
func (e Experiment) Spec() core.Spec {
	return core.Spec{ID: e.ID, Graph: e.Graph, Label: e.Label, Params: e.Params, Frames: e.Frames}
}
