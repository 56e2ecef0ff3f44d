// Package node implements the runtime of one Itsy node, on the paper's
// pipeline ring or as a vertex of a fleet graph: exact battery accounting
// over CPU mode transitions, the RECV → PROC → SEND frame loop (§3) with
// self-paced sources and fan-in gathering as input cases, per-node DVS
// policy (fixed clock, DVS-during-I/O or an online governor), pipeline
// role reconfiguration (node rotation, §5.5) and failure
// detection/migration (power-failure recovery, §5.4).
package node

import (
	"math"

	"dvsim/internal/battery"
	"dvsim/internal/chunk"
	"dvsim/internal/cpu"
	"dvsim/internal/sim"
)

// Power meters a node's battery against its CPU activity. Every mode or
// operating-point transition drains the battery for the elapsed segment
// at the previous current and re-predicts the exact death instant, so
// battery exhaustion lands on the simulation timeline with closed-form
// precision rather than at a polling boundary.
type Power struct {
	k   *sim.Kernel
	cpu *cpu.CPU
	bat battery.Model

	lastT sim.Time
	// death is the reusable battery-exhaustion event; every Transition
	// re-targets it with Reschedule instead of allocating a new event.
	death     sim.Event
	dead      bool
	suspended bool

	// OnDeath is invoked exactly once, at the instant the battery
	// empties. It typically interrupts the node's frame loop.
	OnDeath func()

	// Accounting per mode (seconds and mA·s at the battery), indexed by
	// cpu.Mode (Idle, Comm, Compute).
	modeTime   [cpu.NumModes]float64
	modeCharge [cpu.NumModes]float64
	// transitions counts CPU mode changes; delivered is the charge
	// drawn in mA·s, summed in draw order.
	transitions int
	delivered   float64

	// traceOn records every constant-power span, for timeline figures.
	traceOn bool
	trace   chunk.List[ModeSpan]
}

// ModeSpan is one constant-mode, constant-point span of a node's
// activity, the raw material of the paper's timing-vs-power diagrams
// (Figs 2, 3 and 9).
type ModeSpan struct {
	Mode  cpu.Mode
	Op    cpu.OperatingPoint
	Start sim.Time
	End   sim.Time
}

// NewPower starts metering: the battery begins draining at the CPU's
// current mode and operating point from the kernel's present time.
func NewPower(k *sim.Kernel, c *cpu.CPU, bat battery.Model) *Power {
	pw := &Power{
		k: k, cpu: c, bat: bat,
		lastT: k.Now(),
	}
	pw.death.Bind(pw.deathFire)
	pw.arm()
	return pw
}

// deathFire is the death event's bound callback: settle the final
// segment, then declare exhaustion.
func (pw *Power) deathFire() {
	pw.settle()
	pw.die()
}

// Battery exposes the metered battery.
func (pw *Power) Battery() battery.Model { return pw.bat }

// CPU exposes the metered processor.
func (pw *Power) CPU() *cpu.CPU { return pw.cpu }

// Dead reports whether the battery has emptied.
func (pw *Power) Dead() bool { return pw.dead }

// Suspended reports whether metering is halted by Suspend.
func (pw *Power) Suspended() bool { return pw.suspended }

// ModeSeconds returns the accumulated time in mode m.
func (pw *Power) ModeSeconds(m cpu.Mode) float64 { return pw.modeTime[m] }

// ModeMAh returns the charge drawn in mode m, in mAh.
func (pw *Power) ModeMAh(m cpu.Mode) float64 { return pw.modeCharge[m] / 3600 }

// Transitions returns how many CPU mode changes the meter has applied.
func (pw *Power) Transitions() int { return pw.transitions }

// DeliveredMAs returns the charge drawn across all modes, in mA·s.
func (pw *Power) DeliveredMAs() float64 { return pw.delivered }

// EnableTrace starts recording mode spans (see Trace).
func (pw *Power) EnableTrace() { pw.traceOn = true }

// Trace returns the recorded spans, in place.
func (pw *Power) Trace() *chunk.List[ModeSpan] { return &pw.trace }

// settle drains the battery for the segment since the last transition.
func (pw *Power) settle() {
	now := pw.k.Now()
	dt := float64(now - pw.lastT)
	pw.lastT = now
	if dt <= 0 || pw.dead {
		return
	}
	if pw.suspended {
		// A crashed node draws nothing: the rest interval still passes
		// through the battery model so recovery-effect chemistries
		// (TwoWell) regain charge, but no mode time is attributed.
		pw.bat.Drain(0, dt)
		return
	}
	i := pw.cpu.CurrentMA()
	ran := pw.bat.Drain(i, dt)
	pw.modeTime[pw.cpu.Mode()] += ran
	pw.modeCharge[pw.cpu.Mode()] += i * ran
	pw.delivered += i * ran
	if pw.traceOn {
		start := now - sim.Time(dt)
		pw.trace.Append(ModeSpan{
			Mode:  pw.cpu.Mode(),
			Op:    pw.cpu.Point(),
			Start: start,
			End:   start + sim.Time(ran),
		})
	}
	if ran < dt-1e-12 || pw.bat.Empty() {
		// Should coincide with the armed death event; fire the state
		// change here to be safe against float drift.
		pw.die()
	}
}

// arm schedules the death event for the present draw: a finite
// prediction moves the queued event in place, anything else cancels it.
func (pw *Power) arm() {
	if !pw.dead && !pw.suspended {
		if tte := pw.bat.TimeToEmpty(pw.cpu.CurrentMA()); !math.IsInf(tte, 1) {
			pw.k.Reschedule(&pw.death, pw.k.Now()+sim.Time(tte))
			return
		}
	}
	pw.k.Cancel(&pw.death)
}

func (pw *Power) die() {
	if pw.dead {
		return
	}
	pw.dead = true
	pw.k.Cancel(&pw.death)
	if pw.OnDeath != nil {
		pw.OnDeath()
	}
}

// Transition switches the CPU to mode m at operating point op, settling
// the battery for the segment just ended and re-arming the death event.
//
// A transition to the present mode and point at the instant of the last
// settle is a no-op on a live meter whose death event is armed: there is
// no segment to drain, no counter moves, and the battery and the draw
// the death instant was predicted from are unchanged. It returns at
// once instead of re-predicting the same instant.
func (pw *Power) Transition(m cpu.Mode, op cpu.OperatingPoint) {
	//lint:allow floateq identity of stored values: lastT is a copy of the clock taken at the last settle, never recomputed
	if pw.k.Now() == pw.lastT && m == pw.cpu.Mode() && op == pw.cpu.Point() &&
		!pw.dead && !pw.suspended && !pw.death.Canceled() {
		return
	}
	pw.settle()
	if m != pw.cpu.Mode() {
		pw.transitions++
	}
	pw.cpu.SetMode(m)
	pw.cpu.SetPoint(op)
	pw.arm()
}

// Suspend halts metering for a crashed node: the segment so far is
// settled, the pending death prediction is cancelled, and until Resume
// the battery rests at zero draw.
func (pw *Power) Suspend() {
	if pw.dead || pw.suspended {
		return
	}
	pw.settle()
	pw.suspended = true
	pw.k.Cancel(&pw.death)
}

// Resume restarts metering after Suspend, settling the rest interval at
// zero draw and re-arming the death prediction for the present draw.
func (pw *Power) Resume() {
	if pw.dead || !pw.suspended {
		return
	}
	pw.settle()
	pw.suspended = false
	pw.arm()
}

// Finish settles any outstanding segment (call at the end of a run).
func (pw *Power) Finish() {
	pw.settle()
	pw.k.Cancel(&pw.death)
}
