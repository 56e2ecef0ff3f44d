// Command calibrate solves the constrained two-well battery parameters
// (C, A, F, R) in closed form from the four single-node anchor
// experiments the paper reports (0A, 0B, 1, 1A), falling back to a grid
// fit when the anchors are inconsistent, and prints the parameters plus
// per-anchor residuals. The solved values are baked into
// core.DefaultItsyBattery; rerun this tool after changing the CPU power
// model. -kibam also fits the classical KiBaM (with a Peukert draw) for
// comparison.
//
// Usage: calibrate [-kibam] [-ref mA]
package main

import (
	"flag"
	"fmt"
	"os"

	"dvsim/internal/battery"
	"dvsim/internal/core"
)

func main() {
	ref := flag.Float64("ref", 100, "Peukert reference current for KiBaM, mA (pinned)")
	kibam := flag.Bool("kibam", false, "also fit the (slower, worse) KiBaM model")
	flag.Parse()

	anchors := core.CalibrationAnchors()
	fmt.Println("calibrating against paper anchors:")
	for _, a := range anchors {
		fmt.Printf("  %-4s mean %6.2f mA  target %8.0f s (%.2f h)\n",
			a.Name, battery.CycleMeanMA(a.Cycle), a.TargetS, a.TargetS/3600)
	}

	fmt.Println("\n== constrained two-well model (analytic solve) ==")
	// Anchor roles: 0A=constHi, 0B=constLo, 1=cycleHi, 1A=cycleLo.
	params, ok := battery.SolveTwoWell(anchors[1], anchors[0], anchors[2], anchors[3])
	if !ok {
		fmt.Fprintln(os.Stderr, "analytic solve inconsistent; falling back to grid fit")
		var res battery.FitResult
		params, res = battery.FitTwoWell(anchors)
		_ = res
	}
	fmt.Printf("solved: %v\n", params)
	res := battery.FitResult{Lifetimes: make([]float64, len(anchors))}
	for i, a := range anchors {
		res.Lifetimes[i] = battery.Lifetime(params.New(), a.Cycle)
	}
	report(anchors, res)

	if *kibam {
		fmt.Println("\n== classical KiBaM (+Peukert draw) ==")
		kres := battery.FitKiBaM(anchors, *ref)
		fmt.Printf("best: %v\nloss: %.6f\n", kres.Params, kres.Loss)
		report(anchors, kres)
	}
}

func report(anchors []battery.Anchor, res battery.FitResult) {
	fmt.Printf("%-4s %12s %12s %8s\n", "exp", "model (h)", "paper (h)", "ratio")
	worst := 0.0
	for i, a := range anchors {
		ratio := res.Lifetimes[i] / a.TargetS
		fmt.Printf("%-4s %12.3f %12.3f %8.3f\n", a.Name, res.Lifetimes[i]/3600, a.TargetS/3600, ratio)
		d := ratio - 1
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	if worst > 0.15 {
		fmt.Fprintln(os.Stderr, "warning: worst residual exceeds 15%")
	}
}
