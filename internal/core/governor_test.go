package core

import (
	"bytes"
	"strings"
	"testing"

	"dvsim/internal/cpu"
	"dvsim/internal/governor"
)

// TestGovernorStudyAcceptance pins the study's headline claims: the
// adaptive governors must meet the paper's D = 2.3 s frame deadline
// with zero misses while spending no more charge per frame than the
// full-clock static baseline they start from.
func TestGovernorStudyAcceptance(t *testing.T) {
	outs, err := RunGovernorStudy(DefaultParams(), 0, 300)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Outcome{}
	for _, o := range outs {
		byName[o.Governor] = o
	}
	static, ok := byName["static"]
	if !ok {
		t.Fatal("study did not run the static baseline")
	}
	if static.Frames != 300 {
		t.Fatalf("static baseline delivered %d frames, want the full 300", static.Frames)
	}
	for _, name := range []string{"interval", "pid"} {
		o, ok := byName[name]
		if !ok {
			t.Fatalf("study did not run %q", name)
		}
		if misses := o.TotalDeadlineMisses(); misses != 0 {
			t.Errorf("%s missed the deadline %d times", name, misses)
		}
		if o.Frames != static.Frames {
			t.Errorf("%s delivered %d frames, static %d", name, o.Frames, static.Frames)
		}
		if e, es := o.EnergyPerFrameMAh(), static.EnergyPerFrameMAh(); e > es {
			t.Errorf("%s spent %.6f mAh/frame, above the static baseline's %.6f", name, e, es)
		}
	}
	// The adaptive policies must actually have converged down from the
	// 206.4 MHz start, or the energy comparison is vacuous.
	for _, name := range []string{"interval", "pid", "buffer"} {
		for _, ns := range byName[name].NodeStats {
			if ns.GovDecisions == 0 {
				t.Errorf("%s %s took no decisions", name, ns.Name)
			}
			if ns.GovMeanMHz >= 206.4 {
				t.Errorf("%s %s never left full clock (mean %.1f MHz)", name, ns.Name, ns.GovMeanMHz)
			}
		}
	}
}

// TestStaticGovernorMatchesUngoverned: selecting "static" explicitly
// exercises the whole decision loop yet must reproduce the ungoverned
// run's physics — same frames, same lifetime, same per-mode seconds and
// charge — with only the governor accounting differing.
func TestStaticGovernorMatchesUngoverned(t *testing.T) {
	p := DefaultParams()
	base := mustSimulate(t, Spec{ID: Exp2, Params: p}, Sinks{})
	p.Governor = governor.Spec{Name: "static"}
	gov := mustSimulate(t, Spec{ID: Exp2, Params: p}, Sinks{})

	if gov.Frames != base.Frames || gov.BatteryLifeH != base.BatteryLifeH {
		t.Errorf("static governor changed the run: %d frames %.4f h, want %d frames %.4f h",
			gov.Frames, gov.BatteryLifeH, base.Frames, base.BatteryLifeH)
	}
	if gov.Governor != "static" || base.Governor != "" {
		t.Errorf("governor labels: got %q and %q", gov.Governor, base.Governor)
	}
	for i := range base.NodeStats {
		b, g := base.NodeStats[i], gov.NodeStats[i]
		if g.IdleS != b.IdleS || g.CommS != b.CommS || g.ComputeS != b.ComputeS ||
			g.DeliveredMAh != b.DeliveredMAh || g.FramesProcessed != b.FramesProcessed {
			t.Errorf("%s physics drifted under the static governor:\n got %+v\nwant %+v", b.Name, g, b)
		}
		if g.GovDecisions == 0 || g.GovSwitches != 0 {
			t.Errorf("%s accounting: %d decisions, %d switches; want >0 and 0",
				g.Name, g.GovDecisions, g.GovSwitches)
		}
		if b.GovDecisions != 0 {
			t.Errorf("ungoverned %s recorded %d decisions", b.Name, b.GovDecisions)
		}
	}
}

// TestGovernedTelemetryDeterministic: same config, same governor ⇒
// byte-identical telemetry, govern events included.
func TestGovernedTelemetryDeterministic(t *testing.T) {
	p := DefaultParams()
	p.Governor = governor.Spec{Name: "pid"}
	var a, b bytes.Buffer
	mustSimulate(t, Spec{ID: Exp2, Params: p, UntilS: 300}, Sinks{Log: &a})
	mustSimulate(t, Spec{ID: Exp2, Params: p, UntilS: 300}, Sinks{Log: &b})
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("governed telemetry differs between identical runs")
	}
	if !strings.Contains(a.String(), `"event":"govern"`) {
		t.Error("governed telemetry contains no govern events")
	}
}

// TestGovernorConvergesToOfflineAssignment: started at full clock on the
// experiment-2 partition, the interval governor must rediscover the
// paper's offline Fig 8 assignment online — to within one table step up.
// The slack for one step is principled, not a fudge: Fig 8's published
// clocks are only feasible under the paper's ~2% measurement tolerance
// (Params.FeasibilityTol), which the online governor does not grant —
// it demands strict feasibility plus its own guard margin, so a stage
// whose offline clock just barely overruns D lands one level higher.
func TestGovernorConvergesToOfflineAssignment(t *testing.T) {
	p := DefaultParams()
	best, err := p.BestTwoNodeScheme()
	if err != nil {
		t.Fatal(err)
	}
	outs, err := RunGovernorStudy(p, 0, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if o.Governor != "interval" {
			continue
		}
		for i, ns := range o.NodeStats {
			offline := best.Stages[i].Compute
			stepUp, ok := cpu.NextAbove(offline.FreqMHz + 1e-9)
			if !ok {
				stepUp = offline
			}
			// The mean includes the first full-clock frames before the
			// EWMA converges; allow that transient on top of the step.
			if ns.GovMeanMHz > stepUp.FreqMHz+0.02*206.4 {
				t.Errorf("%s mean %.1f MHz, want at most one step above the offline %.1f MHz (%.1f)",
					ns.Name, ns.GovMeanMHz, offline.FreqMHz, stepUp.FreqMHz)
			}
			if ns.GovMeanMHz < offline.FreqMHz-1 {
				t.Errorf("%s mean %.1f MHz dropped below the offline minimum %.1f MHz",
					ns.Name, ns.GovMeanMHz, offline.FreqMHz)
			}
		}
	}
}

// TestPlatformConfigGovernorRoundTrip: the governor selection survives
// the JSON platform config, and a bad spec is rejected at load time.
func TestPlatformConfigGovernorRoundTrip(t *testing.T) {
	pc := DefaultPlatformConfig()
	pc.Governor = governor.Spec{Name: "pid", Tuning: map[string]float64{"kp": 0.5}}
	var buf bytes.Buffer
	if err := SavePlatform(&buf, pc); err != nil {
		t.Fatal(err)
	}
	p, err := loadParams(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p.Governor.String() != "pid:kp=0.5" {
		t.Errorf("governor round-tripped to %q", p.Governor.String())
	}

	pc.Governor = governor.Spec{Name: "warp"}
	buf.Reset()
	if err := SavePlatform(&buf, pc); err != nil {
		t.Fatal(err)
	}
	if _, err := loadParams(&buf); err == nil {
		t.Error("unknown governor accepted at load time")
	}

	pc.Governor = governor.Spec{Name: "interval", Tuning: map[string]float64{"alpha": 2}}
	buf.Reset()
	if err := SavePlatform(&buf, pc); err != nil {
		t.Fatal(err)
	}
	if _, err := loadParams(&buf); err == nil {
		t.Error("out-of-range tuning accepted at load time")
	}
}
