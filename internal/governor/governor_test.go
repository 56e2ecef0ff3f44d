package governor

import (
	"testing"

	"dvsim/internal/cpu"
)

// obsAt builds a steady-state observation for a node computing refS
// reference seconds per frame with commS of wire time, running at op.
func obsAt(frame int, refS, commS, deadline float64, op cpu.OperatingPoint) Observation {
	proc := cpu.ScaledTime(refS, op)
	return Observation{
		Frame:       frame,
		NowS:        float64(frame) * deadline,
		DeadlineS:   deadline,
		ProcS:       proc,
		CommS:       commS,
		SlackS:      deadline - proc - commS,
		RefS:        proc * op.FreqMHz / cpu.MaxPoint.FreqMHz,
		SoC:         1,
		Point:       op,
		RoleCompute: op,
	}
}

func TestStaticHoldsRolePoint(t *testing.T) {
	g := NewStatic()
	obs := obsAt(0, 0.5, 0.3, 2.3, cpu.MaxPoint)
	obs.RoleCompute = cpu.PointAt(103.2)
	if got := g.Decide(obs); got != cpu.PointAt(103.2) {
		t.Errorf("static decided %v, want the role point 103.2 MHz", got)
	}
	// Even under deadline pressure the static policy does not move.
	obs.SlackS = -1
	if got := g.Decide(obs); got != cpu.PointAt(103.2) {
		t.Errorf("static moved to %v under pressure", got)
	}
}

// TestIntervalConvergesToMinFeasible: a constant workload must settle on
// exactly the point the offline planner would assign — the lowest table
// frequency whose projected frame time fits D.
func TestIntervalConvergesToMinFeasible(t *testing.T) {
	g := NewInterval()
	const refS, commS, deadline = 0.69, 0.94, 2.3
	op := cpu.MaxPoint
	for f := 0; f < 50; f++ {
		op = g.Decide(obsAt(f, refS, commS, deadline, op))
	}
	want, _, ok := cpu.MinFreqFor(refS, deadline-commS-g.MarginS)
	if !ok {
		t.Fatal("test workload infeasible")
	}
	if op != want {
		t.Errorf("interval settled at %v, want %v", op, want)
	}
	// And it must stay there: no limit cycling on constant input.
	for f := 50; f < 60; f++ {
		next := g.Decide(obsAt(f, refS, commS, deadline, op))
		if next != op {
			t.Fatalf("interval oscillated %v -> %v on constant workload", op, next)
		}
	}
}

// TestIntervalInfeasibleRunsFlatOut: workload beyond the table's reach
// (the paper's "would need ~380 MHz" scheme) must pin at the max point.
func TestIntervalInfeasibleRunsFlatOut(t *testing.T) {
	g := NewInterval()
	op := cpu.MaxPoint
	for f := 0; f < 10; f++ {
		op = g.Decide(obsAt(f, 4.0, 0.3, 2.3, op))
	}
	if op != cpu.MaxPoint {
		t.Errorf("infeasible workload decided %v, want max point", op)
	}
}

// TestPIDHoldsFloorWhenModelAccurate: with the measured workload
// matching the projection, the PID trim must settle on the feasibility
// floor (the same point the interval policy picks), not oscillate.
func TestPIDHoldsFloorWhenModelAccurate(t *testing.T) {
	g := NewPID()
	iv := NewInterval()
	const refS, commS, deadline = 0.69, 0.94, 2.3
	opPID, opIv := cpu.MaxPoint, cpu.MaxPoint
	for f := 0; f < 60; f++ {
		opPID = g.Decide(obsAt(f, refS, commS, deadline, opPID))
		opIv = iv.Decide(obsAt(f, refS, commS, deadline, opIv))
	}
	if opPID != opIv {
		t.Errorf("pid settled at %v, interval floor is %v", opPID, opIv)
	}
	for f := 60; f < 70; f++ {
		next := g.Decide(obsAt(f, refS, commS, deadline, opPID))
		if next != opPID {
			t.Fatalf("pid oscillated %v -> %v on constant workload", opPID, next)
		}
	}
}

// TestPIDPushesAboveFloorOnMisses: when measured slack goes negative
// (the projection under-estimates, e.g. native execution or faults),
// the feedback terms must drive the clock above the floor.
func TestPIDPushesAboveFloorOnMisses(t *testing.T) {
	g := NewPID()
	const deadline = 2.3
	op := cpu.PointAt(103.2)
	// Build a lying observation: projection thinks the work fits the
	// current point, but slack is persistently negative.
	for f := 0; f < 20; f++ {
		obs := obsAt(f, 0.9, 0.94, deadline, op)
		obs.SlackS = -0.2
		op = g.Decide(obs)
	}
	// The floor alone (accurate model) would sit at the projected
	// minimum; persistent misses must have pushed past it.
	floor, _, _ := cpu.MinFreqFor(0.9*103.2/cpu.MaxPoint.FreqMHz*cpu.MaxPoint.FreqMHz/103.2, deadline-0.94-g.MarginS)
	if op.FreqMHz <= floor.FreqMHz {
		t.Errorf("pid stayed at %v despite persistent misses (floor %v)", op, floor)
	}
}

// TestPIDAntiWindup: a long saturation must not leave the integral
// wound up — after pressure vanishes the controller must return to the
// floor within a bounded number of frames.
func TestPIDAntiWindup(t *testing.T) {
	g := NewPID()
	const refS, commS, deadline = 0.69, 0.94, 2.3
	op := cpu.MaxPoint
	// Phase 1: 200 frames of impossible deadline pressure.
	for f := 0; f < 200; f++ {
		obs := obsAt(f, refS, commS, deadline, op)
		obs.SlackS = -5
		op = g.Decide(obs)
	}
	if g.integ > g.IMax+1e-12 {
		t.Fatalf("integral %v exceeded clamp %v", g.integ, g.IMax)
	}
	// Phase 2: accurate, comfortable workload. Must unwind quickly.
	settled := -1
	var want cpu.OperatingPoint
	iv := NewInterval()
	for f := 0; f < 60; f++ {
		op = g.Decide(obsAt(200+f, refS, commS, deadline, op))
		want = iv.Decide(obsAt(200+f, refS, commS, deadline, op))
		if op == want {
			settled = f
			break
		}
	}
	if settled < 0 {
		t.Errorf("pid never unwound to the floor %v after saturation (stuck at %v)", want, op)
	}
}

func TestBufferStepsUpOnBacklog(t *testing.T) {
	g := NewBuffer()
	op := cpu.PointAt(103.2)
	obs := obsAt(0, 0.3, 0.3, 2.3, op)
	obs.QueueIn = 3
	if got := g.Decide(obs); got != cpu.PointAt(118.0) {
		t.Errorf("backlog decided %v, want one level up (118 MHz)", got)
	}
}

func TestBufferStepsDownOnSlowPartner(t *testing.T) {
	g := NewBuffer()
	op := cpu.PointAt(103.2)
	obs := obsAt(0, 0.3, 0.3, 2.3, op)
	obs.QueueIn = 5     // backlog present...
	obs.DownWaitS = 0.5 // ...but downstream is the one blocking
	if got := g.Decide(obs); got != cpu.PointAt(88.5) {
		t.Errorf("slow partner decided %v, want one level down (88.5 MHz)", got)
	}
}

func TestBufferStepsDownOnlyWhenProjectionFits(t *testing.T) {
	g := NewBuffer()
	op := cpu.PointAt(73.7)
	// Large slack, empty queue, but the next level down cannot fit the
	// frame: hold.
	obs := obsAt(0, 0.3, 0.3, 2.3, op)
	obs.ProcS = 1.7 // 59 MHz would need 2.12 s + 0.3 s comm > the guarded budget
	obs.SlackS = 2.3 - obs.ProcS - obs.CommS
	if got := g.Decide(obs); got != op {
		t.Errorf("infeasible step-down decided %v, want hold at %v", got, op)
	}
	// With a light frame the step down is safe.
	obs = obsAt(0, 0.2, 0.3, 2.3, op)
	if got := g.Decide(obs); got != cpu.MinPoint {
		t.Errorf("feasible step-down decided %v, want 59 MHz", got)
	}
}

func TestBufferClampsAtTableEdges(t *testing.T) {
	g := NewBuffer()
	obs := obsAt(0, 0.1, 0.1, 2.3, cpu.MaxPoint)
	obs.QueueIn = 10
	if got := g.Decide(obs); got != cpu.MaxPoint {
		t.Errorf("top-of-table backlog decided %v, want clamp at max", got)
	}
	obs = obsAt(0, 0.1, 0.1, 2.3, cpu.MinPoint)
	obs.DownWaitS = 10
	if got := g.Decide(obs); got != cpu.MinPoint {
		t.Errorf("bottom-of-table wait decided %v, want clamp at min", got)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	cases := []struct {
		text string
		want string
	}{
		{"", "none"},
		{"static", "static"},
		{"interval", "interval"},
		{"pid:kp=0.5,ki=0.1", "pid:ki=0.1,kp=0.5"},
		{"buffer:hi=3", "buffer:hi=3"},
		{" interval ", "interval"},
	}
	for _, c := range cases {
		s, err := ParseSpec(c.text)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.text, err)
			continue
		}
		if s.String() != c.want {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", c.text, s.String(), c.want)
		}
		if _, err := s.New(); err != nil {
			t.Errorf("Spec %q does not construct: %v", c.text, err)
		}
	}
}

func TestSpecRejects(t *testing.T) {
	for _, text := range []string{
		"turbo",            // unknown policy
		"pid:warp=9",       // unknown knob
		"static:alpha=0.5", // static has no knobs
		"pid:kp",           // malformed tuning
		"pid:kp=fast",      // non-numeric value
		// Values New would refuse: ParseSpec refuses them first.
		"interval:alpha=2",
		"pid:imax=-1",
		"buffer:hi=0",
		"buffer:hi=1e300", // past the int range
		"pid:kp=NaN",
		"interval:margin_s=Inf",
	} {
		if _, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", text)
		}
	}
	if _, err := (Spec{Name: "interval", Tuning: map[string]float64{"alpha": 2}}).New(); err == nil {
		t.Error("interval alpha=2 accepted, want error")
	}
	if _, err := (Spec{Tuning: map[string]float64{"kp": 1}}).New(); err == nil {
		t.Error("tuning without a policy name accepted, want error")
	}
}

func TestMustNewNilForEmptySpec(t *testing.T) {
	if g := MustNew(Spec{}); g != nil {
		t.Errorf("empty spec constructed %v, want nil", g)
	}
	for _, name := range Names {
		g := MustNew(Spec{Name: name})
		if g == nil || g.Name() != name {
			t.Errorf("MustNew(%q) = %v", name, g)
		}
		g.Reset() // must not panic on fresh state
	}
}
