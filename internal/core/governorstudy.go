package core

import "dvsim/internal/governor"

// Exp3A is the governor study: the experiment-2 two-node partition with
// both compute clocks deliberately started at the full 206.4 MHz (and
// DVS during I/O on), run once per online DVS policy. The static policy
// then reproduces the expensive full-clock baseline, and each adaptive
// governor shows how much of the paper's offline Table-driven saving it
// recovers online — without ever having seen the profile.
const Exp3A ID = "3A"

// GovernorStudySpecs lists the policies experiment 3A compares, in run
// order: one spec per policy, default tuning.
func GovernorStudySpecs() []governor.Spec {
	specs := make([]governor.Spec, len(governor.Names))
	for i, name := range governor.Names {
		specs[i] = governor.Spec{Name: name}
	}
	return specs
}

// RunGovernorStudy executes experiment 3A: one run per policy in
// GovernorStudySpecs, each on the same pipeline and battery budget, so
// the outcomes are directly comparable (Outcome.Governor tells them
// apart). maxFrames bounds each run (0 runs to battery exhaustion);
// workers parallelizes across policies (≤ 0 selects GOMAXPROCS). A
// single policy is Simulate of Spec{ID: Exp3A} with Params.Governor set.
func RunGovernorStudy(p Params, workers, maxFrames int) ([]Outcome, error) {
	govs := GovernorStudySpecs()
	specs := make([]Spec, len(govs))
	for i, g := range govs {
		specs[i] = Spec{ID: Exp3A, Params: p, Frames: maxFrames}
		specs[i].Params.Governor = g
	}
	return simulateAll(specs, workers)
}

// EnergyPerFrameMAh is the run's total battery charge spent per
// delivered frame — the governor study's energy figure of merit. Zero
// when the run delivered nothing.
func (o Outcome) EnergyPerFrameMAh() float64 {
	if o.Frames == 0 {
		return 0
	}
	var mah float64
	for _, ns := range o.NodeStats {
		mah += ns.DeliveredMAh
	}
	return mah / float64(o.Frames)
}

// TotalDeadlineMisses sums the per-node deadline misses.
func (o Outcome) TotalDeadlineMisses() int {
	var n int
	for _, ns := range o.NodeStats {
		n += ns.DeadlineMisses
	}
	return n
}
