package node

import (
	"math"
	"testing"

	"dvsim/internal/battery"
	"dvsim/internal/cpu"
	"dvsim/internal/sim"
)

func newPowerRig(capacityMAh float64) (*sim.Kernel, *Power) {
	k := sim.NewKernel()
	c := cpu.New(nil, cpu.MaxPoint)
	pw := NewPower(k, c, battery.NewIdeal(capacityMAh))
	return k, pw
}

func TestPowerDeathFiresAtExactInstant(t *testing.T) {
	// Ideal 1 mAh battery at compute/206.4 (≈130 mA): dies at 3600/130·s.
	k, pw := newPowerRig(1)
	var diedAt sim.Time = -1
	pw.OnDeath = func() { diedAt = k.Now() }
	pw.Transition(cpu.Compute, cpu.MaxPoint)
	k.Run()
	i := pw.CPU().Model().CurrentMA(cpu.Compute, cpu.MaxPoint)
	want := 3600 / i
	if math.Abs(float64(diedAt)-want) > 1e-6 {
		t.Fatalf("died at %v, want %v", diedAt, want)
	}
	if !pw.Dead() {
		t.Fatal("not marked dead")
	}
}

func TestPowerTransitionReschedulesDeath(t *testing.T) {
	k, pw := newPowerRig(1)
	var diedAt sim.Time = -1
	pw.OnDeath = func() { diedAt = k.Now() }
	iComp := pw.CPU().Model().CurrentMA(cpu.Compute, cpu.MaxPoint)
	iIdle := pw.CPU().Model().CurrentMA(cpu.Idle, cpu.MinPoint)

	pw.Transition(cpu.Compute, cpu.MaxPoint)
	// Halfway to compute-death, drop to idle: the death event must move.
	half := 3600 / iComp / 2
	k.At(sim.Time(half), func() { pw.Transition(cpu.Idle, cpu.MinPoint) })
	k.Run()
	wantRemaining := (1*3600 - iComp*half) / iIdle
	want := half + wantRemaining
	if math.Abs(float64(diedAt)-want) > 1e-6 {
		t.Fatalf("died at %v, want %v", diedAt, want)
	}
}

func TestPowerModeAccounting(t *testing.T) {
	k, pw := newPowerRig(1000)
	pw.Transition(cpu.Compute, cpu.MaxPoint)
	k.At(10, func() { pw.Transition(cpu.Comm, cpu.MinPoint) })
	k.At(25, func() { pw.Transition(cpu.Idle, cpu.MinPoint) })
	k.At(30, func() { pw.Finish() })
	k.Run()
	if got := pw.ModeSeconds(cpu.Compute); math.Abs(got-10) > 1e-9 {
		t.Errorf("compute time %v, want 10", got)
	}
	if got := pw.ModeSeconds(cpu.Comm); math.Abs(got-15) > 1e-9 {
		t.Errorf("comm time %v, want 15", got)
	}
	if got := pw.ModeSeconds(cpu.Idle); math.Abs(got-5) > 1e-9 {
		t.Errorf("idle time %v, want 5", got)
	}
	// Charge per mode = current × time.
	pm := pw.CPU().Model()
	wantMAh := pm.CurrentMA(cpu.Comm, cpu.MinPoint) * 15 / 3600
	if got := pw.ModeMAh(cpu.Comm); math.Abs(got-wantMAh) > 1e-9 {
		t.Errorf("comm charge %v mAh, want %v", got, wantMAh)
	}
	// Idle → compute → comm → idle is three mode changes and one point
	// change, and the delivered charge is the per-mode charges' sum.
	if pw.Transitions() != 3 || pw.CPU().Switches() != 1 {
		t.Errorf("%d mode transitions and %d DVS switches, want 3 and 1", pw.Transitions(), pw.CPU().Switches())
	}
	var sumMAs float64
	for m := cpu.Mode(0); m < cpu.NumModes; m++ {
		sumMAs += pw.ModeMAh(m) * 3600
	}
	if got := pw.DeliveredMAs(); math.Abs(got-sumMAs) > 1e-9 {
		t.Errorf("delivered %v mA·s, per-mode sum %v", got, sumMAs)
	}
}

func TestPowerOnDeathFiresOnce(t *testing.T) {
	k, pw := newPowerRig(0.01)
	deaths := 0
	pw.OnDeath = func() { deaths++ }
	pw.Transition(cpu.Compute, cpu.MaxPoint)
	k.At(1000, func() { pw.Transition(cpu.Idle, cpu.MinPoint) }) // after death
	k.Run()
	if deaths != 1 {
		t.Fatalf("OnDeath fired %d times", deaths)
	}
}

func TestPowerNoDeathEventForSustainableDraw(t *testing.T) {
	k := sim.NewKernel()
	// A hypothetical zero-draw platform: infinite TimeToEmpty must not
	// schedule a death event, or the kernel would never drain.
	zero := &cpu.PowerModel{}
	c := cpu.New(zero, cpu.MinPoint)
	pw := NewPower(k, c, battery.NewTwoWell(100, 10, 1000, 1))
	_ = pw
	if !k.Idle() {
		t.Fatal("sustainable draw scheduled a death event")
	}
}

func TestPowerFinishSettlesTail(t *testing.T) {
	k, pw := newPowerRig(1000)
	pw.Transition(cpu.Compute, cpu.MaxPoint)
	k.At(7, func() { pw.Finish() })
	k.Run()
	i := pw.CPU().Model().CurrentMA(cpu.Compute, cpu.MaxPoint)
	want := i * 7 / 3600
	if got := pw.Battery().DeliveredMAh(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("delivered %v mAh, want %v", got, want)
	}
}

// meterState is everything a transition may change, floats as bits so
// "unchanged" means bit-identical.
type meterState struct {
	death, scheduled      uint64
	canceled              bool
	modeS, modeMAh        [cpu.NumModes]uint64
	spans, modeTrans, dvs int
	delivered             uint64
}

func readMeter(k *sim.Kernel, pw *Power) meterState {
	st := meterState{
		death:     math.Float64bits(float64(pw.death.Time())),
		scheduled: k.Scheduled(),
		canceled:  pw.death.Canceled(),
		spans:     pw.Trace().Len(),
		modeTrans: pw.Transitions(),
		dvs:       pw.CPU().Switches(),
		delivered: math.Float64bits(pw.DeliveredMAs()),
	}
	for m := cpu.Mode(0); m < cpu.NumModes; m++ {
		st.modeS[m] = math.Float64bits(pw.ModeSeconds(m))
		st.modeMAh[m] = math.Float64bits(pw.ModeMAh(m))
	}
	return st
}

// TestPowerSameInstantTransition: a transition to the present mode and
// point at the instant of the last one changes nothing — not the death
// instant, the per-mode accounting, the trace or the counters — and
// does not touch the event queue. A same-instant change of mode or of
// point still settles and re-arms, and so does a repeat after Finish
// cancelled the death event.
func TestPowerSameInstantTransition(t *testing.T) {
	k := sim.NewKernel()
	c := cpu.New(nil, cpu.MaxPoint)
	pw := NewPower(k, c, battery.NewTwoWell(100, 10, 1000, 1))
	pw.EnableTrace()
	pw.Transition(cpu.Compute, cpu.MaxPoint)
	k.RunUntil(5) // the clock stands at 5 from here on
	pw.Transition(cpu.Comm, cpu.MinPoint)
	before := readMeter(k, pw)
	pw.Transition(cpu.Comm, cpu.MinPoint)
	if after := readMeter(k, pw); after != before {
		t.Fatalf("same-instant no-op transition changed the meter:\n before %+v\n after  %+v", before, after)
	}

	for _, tc := range []struct {
		name string
		m    cpu.Mode
		op   cpu.OperatingPoint
	}{
		{"mode", cpu.Idle, cpu.MinPoint},
		{"point", cpu.Idle, cpu.MaxPoint},
	} {
		before := readMeter(k, pw)
		pw.Transition(tc.m, tc.op)
		after := readMeter(k, pw)
		if after.scheduled != before.scheduled+1 || after.death == before.death {
			t.Errorf("same-instant %s change did not re-arm death: before %+v, after %+v", tc.name, before, after)
		}
		if after.modeTrans == before.modeTrans && after.dvs == before.dvs {
			t.Errorf("same-instant %s change moved no counter", tc.name)
		}
	}

	pw.Finish()
	if !pw.death.Canceled() {
		t.Fatal("Finish left the death event armed")
	}
	pw.Transition(cpu.Idle, cpu.MaxPoint)
	if pw.death.Canceled() {
		t.Error("a same-instant repeat after Finish did not re-arm death")
	}
}
