package core

import (
	"math"
	"testing"

	"dvsim/internal/battery"
)

// relErr is |got/want − 1|.
func relErr(got, want float64) float64 { return math.Abs(got/want - 1) }

func TestAnchorsSolveExactly(t *testing.T) {
	a := CalibrationAnchors()
	if len(a) != 4 {
		t.Fatalf("%d anchors", len(a))
	}
	params := DefaultItsyBatteryParams()
	for _, anchor := range a {
		life := battery.Lifetime(params.New(), anchor.Cycle)
		if relErr(life, anchor.TargetS) > 1e-3 {
			t.Errorf("%s: model %v s, paper %v s", anchor.Name, life, anchor.TargetS)
		}
	}
}

func TestCalibratedBatteryShape(t *testing.T) {
	p := DefaultItsyBatteryParams()
	if p.CapacityMAh < 700 || p.CapacityMAh > 1000 {
		t.Errorf("capacity %v mAh out of expected range", p.CapacityMAh)
	}
	if p.FlowMA < 100 || p.FlowMA > 115 {
		t.Errorf("flow cliff %v mA out of expected range", p.FlowMA)
	}
	if p.AvailMAh > p.CapacityMAh/5 {
		t.Errorf("well %v mAh too large relative to capacity", p.AvailMAh)
	}
}

// TestSuiteReproducesPaper is the headline regression: every experiment
// of §6 within tolerance of the published battery life, and the ordering
// of the normalized ratios preserved exactly.
func TestSuiteReproducesPaper(t *testing.T) {
	outs := mustSuite(t, AllExperiments, DefaultParams(), 0)
	byID := map[ID]Outcome{}
	for _, o := range outs {
		byID[o.ID] = o
	}

	tolerance := map[ID]float64{
		Exp0A: 0.01, Exp0B: 0.01, Exp1: 0.01, Exp1A: 0.01, // calibrated
		Exp2: 0.10, Exp2A: 0.10, Exp2B: 0.05, Exp2C: 0.12, // predicted
	}
	for id, tol := range tolerance {
		o := byID[id]
		if re := relErr(o.BatteryLifeH, PaperHours(id)); re > tol {
			t.Errorf("%s: %v h vs paper %v h (%.1f%% off, tol %.0f%%)",
				id, o.BatteryLifeH, PaperHours(id), re*100, tol*100)
		}
	}

	// The paper's ordering of normalized battery life:
	// (1) < (2) < (2A) < (1A) < (2B) < (2C).
	order := []ID{Exp1, Exp2, Exp2A, Exp1A, Exp2B, Exp2C}
	for i := 1; i < len(order); i++ {
		a, b := byID[order[i-1]], byID[order[i]]
		if a.Rnorm >= b.Rnorm {
			t.Errorf("ordering violated: Rnorm(%s)=%.3f ≥ Rnorm(%s)=%.3f",
				a.ID, a.Rnorm, b.ID, b.Rnorm)
		}
	}

	// Headline claims.
	if r := byID[Exp1A].Rnorm; math.Abs(r-1.24) > 0.02 {
		t.Errorf("DVS during I/O gain %v, paper 124%%", r)
	}
	if r := byID[Exp2C].Rnorm; r < 1.25 {
		t.Errorf("node rotation gain %v; paper reports the best result (145%%)", r)
	}
	if byID[Exp2].Rnorm > byID[Exp1A].Rnorm {
		t.Error("partitioning should underperform single-node DVS during I/O (§6.4)")
	}
}

func TestExp2Node2DiesFirstWithChargeStranded(t *testing.T) {
	o := Run(Exp2, DefaultParams())
	n1, n2 := o.NodeStats[0], o.NodeStats[1]
	if n2.DiedAtH == 0 {
		t.Fatal("node2 should die (§6.4: Node2 always fails first)")
	}
	if n1.DiedAtH != 0 {
		t.Fatal("node1 should survive the run")
	}
	if n1.FinalSoC < 0.2 {
		t.Errorf("node1 final SoC %v; §6.4 reports plenty of stranded energy", n1.FinalSoC)
	}
}

func TestExp2BMigrationKeepsSystemAlive(t *testing.T) {
	o := Run(Exp2B, DefaultParams())
	n1, n2 := o.NodeStats[0], o.NodeStats[1]
	if n1.Migrations != 1 {
		t.Fatalf("node1 migrations %d, want 1", n1.Migrations)
	}
	if n2.DiedAtH == 0 || n1.DiedAtH == 0 {
		t.Fatal("both nodes should eventually exhaust")
	}
	if n2.DiedAtH >= n1.DiedAtH {
		t.Fatal("node2 must die first")
	}
	// §6.6: Node1 picks up roughly 5K more frames after Node2's death.
	if n1.ResultsSent < 3000 || n1.ResultsSent > 7000 {
		t.Errorf("survivor results %d, want ≈4–5K", n1.ResultsSent)
	}
	// Both batteries are fully used (the point of recovery).
	if n1.FinalSoC > 0.01 || n2.FinalSoC > 0.01 {
		t.Errorf("stranded charge after recovery: %v / %v", n1.FinalSoC, n2.FinalSoC)
	}
}

func TestExp2CBalancesDischarge(t *testing.T) {
	o := Run(Exp2C, DefaultParams())
	n1, n2 := o.NodeStats[0], o.NodeStats[1]
	if relErr(float64(n1.FramesProcessed), float64(n2.FramesProcessed)) > 0.02 {
		t.Errorf("frames %d vs %d; rotation should balance", n1.FramesProcessed, n2.FramesProcessed)
	}
	if n1.Rotations < 100 || n2.Rotations < 100 {
		t.Errorf("rotations %d/%d, want ≈250", n1.Rotations, n2.Rotations)
	}
	// Both batteries drained essentially completely.
	if n1.FinalSoC > 0.01 || n2.FinalSoC > 0.01 {
		t.Errorf("stranded charge under rotation: %v / %v", n1.FinalSoC, n2.FinalSoC)
	}
	// Results come from both nodes (the last role rotates).
	if n1.ResultsSent == 0 || n2.ResultsSent == 0 {
		t.Errorf("results %d/%d", n1.ResultsSent, n2.ResultsSent)
	}
}

func TestExp1AMatchesRecoveryEffectStory(t *testing.T) {
	// §6.3: F(1A) > F(0A) — with I/O and DVS the node completes MORE
	// frames than the no-I/O run, because the battery recovers during
	// the low-current I/O phases.
	p := DefaultParams()
	f0A := Run(Exp0A, p).Frames
	f1A := Run(Exp1A, p).Frames
	if f1A <= f0A {
		t.Errorf("F(1A)=%d ≤ F(0A)=%d; recovery effect missing", f1A, f0A)
	}
}

func TestRunSuiteComputesNormalizedMetrics(t *testing.T) {
	outs := mustSuite(t, []ID{Exp1, Exp2}, DefaultParams(), 0)
	if len(outs) != 2 {
		t.Fatalf("%d outcomes", len(outs))
	}
	o1, o2 := outs[0], outs[1]
	if o1.Rnorm != 1.0 {
		t.Errorf("baseline Rnorm %v, want 1", o1.Rnorm)
	}
	if relErr(o2.TnormH, o2.BatteryLifeH/2) > 1e-9 {
		t.Errorf("Tnorm %v, want T/2", o2.TnormH)
	}
	if relErr(o2.Rnorm, o2.TnormH/o1.BatteryLifeH) > 1e-9 {
		t.Errorf("Rnorm %v inconsistent", o2.Rnorm)
	}
}

func TestRunSuiteWithoutBaselineStillNormalizes(t *testing.T) {
	outs := mustSuite(t, []ID{Exp2C}, DefaultParams(), 0)
	if outs[0].Rnorm <= 1 {
		t.Errorf("2C Rnorm %v, want > 1", outs[0].Rnorm)
	}
}

func TestRunUnknownExperimentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown experiment did not panic")
		}
	}()
	Run(ID("9Z"), DefaultParams())
}

func TestDeterminism(t *testing.T) {
	a := Run(Exp2C, DefaultParams())
	b := Run(Exp2C, DefaultParams())
	if a.Frames != b.Frames || a.WallH != b.WallH {
		t.Fatalf("2C not deterministic: %d/%v vs %d/%v", a.Frames, a.WallH, b.Frames, b.WallH)
	}
}

func TestLabelsAndPaperData(t *testing.T) {
	for _, id := range AllExperiments {
		if Label(id) == string(id) {
			t.Errorf("no label for %s", id)
		}
		if id == Exp2D {
			// 2D extends the suite beyond the paper, so there are no
			// published figures to compare against.
			if PaperHours(id) != 0 || PaperFrames(id) != 0 {
				t.Errorf("unexpected paper data for %s", id)
			}
			continue
		}
		if PaperHours(id) <= 0 || PaperFrames(id) <= 0 {
			t.Errorf("no paper data for %s", id)
		}
	}
	if Label(ID("zz")) != "zz" || PaperHours(ID("zz")) != 0 {
		t.Error("unknown id handling")
	}
}

func TestFramesDroppedIsZero(t *testing.T) {
	// The buffering host never drops frames while any node lives.
	for _, id := range []ID{Exp2, Exp2C} {
		if o := Run(id, DefaultParams()); o.FramesDropped != 0 {
			t.Errorf("%s dropped %d frames", id, o.FramesDropped)
		}
	}
}

func TestIdealBatteryErasesTheHeadline(t *testing.T) {
	// Under an ideal battery the recovery effect vanishes: (1A) gains
	// only the modest current reduction, nowhere near the paper's 24%,
	// and 0A/0B deliver identical charge. This is the ablation that
	// justifies the battery model.
	p := DefaultParams()
	cap := DefaultItsyBatteryParams().CapacityMAh
	p.Battery = func() battery.Model { return battery.NewIdeal(cap) }
	t1 := Run(Exp1, p).BatteryLifeH
	t1A := Run(Exp1A, p).BatteryLifeH
	gain := t1A / t1
	if gain > 1.5 {
		t.Errorf("ideal-battery DVS-I/O gain %v; expected moderate", gain)
	}
	// And the real model's distinguishing behavior: 0A delivers half of
	// 0B's charge on the calibrated pack, but identical charge on ideal.
	f0A := Run(Exp0A, p).NodeStats[0].DeliveredMAh
	f0B := Run(Exp0B, p).NodeStats[0].DeliveredMAh
	if relErr(f0A, f0B) > 1e-6 {
		t.Errorf("ideal battery delivered %v vs %v mAh", f0A, f0B)
	}
}

func TestRunSuiteParallelMatchesSequential(t *testing.T) {
	p := DefaultParams()
	seq := mustSuite(t, []ID{Exp1, Exp1A, Exp2}, p, 1)
	par := mustSuite(t, []ID{Exp1, Exp1A, Exp2}, p, 3)
	for i := range seq {
		if seq[i].Frames != par[i].Frames || seq[i].BatteryLifeH != par[i].BatteryLifeH ||
			seq[i].Rnorm != par[i].Rnorm {
			t.Fatalf("outcome %d differs: %+v vs %+v", i, seq[i], par[i])
		}
	}
}
