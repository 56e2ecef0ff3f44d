// Package core implements the paper's contribution: the four distributed
// DVS techniques (DVS during I/O, partitioning, power-failure recovery,
// node rotation), the partitioning analysis of Fig 8, the experiment suite
// 0A–2C of §6, and the battery-lifetime metrics of §4.5.
package core

import (
	"sync"

	"dvsim/internal/assert"
	"dvsim/internal/atr"
	"dvsim/internal/battery"
	"dvsim/internal/cpu"
	"dvsim/internal/fault"
	"dvsim/internal/governor"
	"dvsim/internal/serial"
)

// Params collects every calibrated constant of the experimental platform.
// The zero value is not useful; start from DefaultParams.
type Params struct {
	// Profile is the ATR performance profile (Fig 6).
	Profile atr.Profile
	// Link is the serial/PPP timing model (§4.2–4.3).
	Link serial.LinkParams
	// Power is the CPU current model (Fig 7).
	Power *cpu.PowerModel
	// FrameDelayS is D, the per-node frame budget and the host's frame
	// period (§5.1: 2.3 s).
	FrameDelayS float64
	// FeasibilityTol is the relative tolerance applied when checking
	// RECV+PROC+SEND ≤ D. The paper's published Fig 8 clock rates are
	// only mutually consistent with its Fig 6 profile under a ~2%
	// allowance (measurement rounding); see DESIGN.md.
	FeasibilityTol float64
	// Battery returns a fresh battery pack for one node. Each node gets
	// its own (§1: "a distributed architecture powered by separate
	// batteries").
	Battery func() battery.Model
	// RotationPeriod is the number of frames between node rotations
	// (§6.7: every 100 frames); > 1 enables rotation. Experiment 2C,
	// custom stages and chain graphs read it; the other paper
	// experiments ignore it, and a non-chain graph rejects it — set 0
	// for a static custom run or a fleet.
	RotationPeriod int
	// AckTimeoutS is the failure-detection timeout of the recovery
	// scheme (§5.4). Chosen as a small multiple of the ack transaction
	// cost.
	AckTimeoutS float64
	// Retry bounds retransmission of faulted serial transfers; it only
	// matters when a fault scenario is active (without one no transfer
	// ever faults). A scenario's own retry policy overrides it.
	Retry serial.RetryPolicy
	// Faults, when non-nil, injects the scenario into every run: link
	// drop/garble, node crashes and battery capacity variance. It also
	// overrides experiment 2D's built-in scenario.
	Faults *fault.Scenario
	// Governor, when enabled, attaches an online DVS policy to every
	// pipeline node: the compute operating point is re-decided at each
	// frame boundary instead of staying at the Table-driven assignment
	// (see internal/governor). The zero spec — the default — leaves the
	// paper's static behaviour byte-identical.
	Governor governor.Spec
	// Assertions, when non-nil, evaluates the invariant catalog over
	// every run's telemetry stream (see internal/assert): violations
	// land in Outcome.Violations and, in a telemetry log, as
	// "violation" records. Checked runs force tracing and
	// instrumentation on; nil — the default — costs nothing.
	Assertions *assert.Spec
}

// DefaultParams returns the platform as calibrated against the paper.
func DefaultParams() Params {
	return Params{
		Profile:        atr.Default(),
		Link:           serial.DefaultLink(),
		Power:          cpu.DefaultPowerModel(),
		FrameDelayS:    2.3,
		FeasibilityTol: 0.02,
		Battery:        DefaultItsyBattery,
		RotationPeriod: 100,
		AckTimeoutS:    0.5,
		Retry:          serial.DefaultRetryPolicy(),
	}
}

// DefaultItsyBattery returns the constrained two-well pack calibrated
// against the paper's four single-node anchor lifetimes (experiments 0A,
// 0B, 1, 1A); all four are matched exactly. See cmd/calibrate and
// EXPERIMENTS.md.
func DefaultItsyBattery() battery.Model {
	return DefaultItsyBatteryParams().New()
}

// DefaultItsyBatteryParams exposes the calibrated parameter set. It is
// solved in closed form from the anchors on first use, so it always stays
// consistent with the CPU power model and the ATR profile:
// approximately C = 839 mAh, A = 79.7 mAh, F = 106.7 mA, R = 1.4 mA.
var DefaultItsyBatteryParams = sync.OnceValue(func() battery.TwoWellParams {
	a := CalibrationAnchors()
	p, ok := battery.SolveTwoWell(a[1], a[0], a[2], a[3])
	if !ok {
		panic("core: battery calibration became inconsistent with the platform parameters")
	}
	return p
})
