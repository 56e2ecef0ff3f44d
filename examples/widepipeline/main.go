// Widepipeline: generalize beyond the paper's two nodes — a four-node
// pipeline with one ATR block per node, derived operating points, and
// node rotation over the whole ring. The paper's rotation procedure
// (§5.5) is defined for any N; this runs it.
package main

import (
	"context"
	"fmt"

	"dvsim/internal/atr"
	"dvsim/internal/core"
)

func main() {
	p := core.DefaultParams()

	// One block per node.
	spans := atr.Chain(atr.BlockDetect, atr.BlockFFT, atr.BlockIFFT, atr.BlockDistance)
	pt := p.Plan(spans, false)
	if !pt.Feasible {
		fmt.Println("four-node split infeasible at D =", p.FrameDelayS)
		return
	}
	fmt.Println("four-node pipeline plan:")
	for i, s := range pt.Stages {
		fmt.Printf("  node%d: %-18v in %4.1f KB out %4.1f KB  comm %4.2f s  -> %6.1f MHz (proc %.2f s)\n",
			i+1, s.Span, s.InKB, s.OutKB, s.CommS, s.Compute.FreqMHz, s.ProcS)
	}

	base, err := core.Simulate(context.Background(), core.Spec{ID: core.Exp1, Params: p}, core.Sinks{})
	if err != nil {
		panic(err)
	}
	baseline := base.BatteryLifeH
	fmt.Printf("\nbaseline T(1) = %.2f h\n\n", baseline)

	for _, period := range []int{0, p.RotationPeriod} {
		label := "4-node static"
		if period > 0 {
			label = "4-node rotation"
		}
		pr := p
		pr.RotationPeriod = period
		o, err := core.Simulate(context.Background(),
			core.Spec{Stages: core.StagesFromPartition(pt, true), Label: label, Params: pr}, core.Sinks{})
		if err != nil {
			panic(err)
		}
		rnorm := o.BatteryLifeH / float64(o.Nodes) / baseline
		fmt.Printf("%s: %d frames, T = %.2f h, Tnorm = %.2f h, Rnorm = %.0f%%\n",
			o.Label, o.Frames, o.BatteryLifeH, o.BatteryLifeH/float64(o.Nodes), rnorm*100)
		for _, ns := range o.NodeStats {
			status := "alive"
			if ns.DiedAtH > 0 {
				status = fmt.Sprintf("died %.2f h", ns.DiedAtH)
			}
			fmt.Printf("   %s: %-12s processed %6d, rotations %4d, charge left %3.0f%%\n",
				ns.Name, status, ns.FramesProcessed, ns.Rotations, ns.FinalSoC*100)
		}
		fmt.Println()
	}
	fmt.Println("rotation spreads the heavy Compute-Distance stage across all four")
	fmt.Println("batteries; the static split strands the charge of the light stages.")
}
