// Rotation: sweep the node-rotation period and watch the paper's load
// balancing at work — short periods balance discharge across the two
// batteries, long periods degenerate toward the static partitioning of
// experiment (2). Also prints the rotation timing diagram (Fig 9).
package main

import (
	"context"
	"fmt"

	"dvsim/internal/core"
	"dvsim/internal/node"
	"dvsim/internal/report"
)

func main() {
	p := core.DefaultParams()
	baseline := core.Run(core.Exp1, p).BatteryLifeH

	fmt.Println("rotation period sweep (experiment 2C configuration):")
	fmt.Printf("%10s %10s %10s %12s %14s\n", "period", "T (h)", "Rnorm", "death gap", "rotations")
	for _, period := range []int{2, 10, 50, 100, 500, 2000, 10000} {
		pp := p
		pp.RotationPeriod = period
		o := core.Run(core.Exp2C, pp)
		// Death gap: how far apart the two batteries gave out — the
		// balance metric rotation optimizes.
		d1, d2 := o.NodeStats[0].DiedAtH, o.NodeStats[1].DiedAtH
		gap := "n/a"
		if d1 > 0 && d2 > 0 {
			g := d1 - d2
			if g < 0 {
				g = -g
			}
			gap = fmt.Sprintf("%.2f h", g)
		}
		fmt.Printf("%10d %10.2f %9.0f%% %12s %14d\n",
			period, o.BatteryLifeH, o.BatteryLifeH/2/baseline*100, gap,
			o.NodeStats[0].Rotations+o.NodeStats[1].Rotations)
	}
	static := core.Run(core.Exp2, p)
	fmt.Printf("%10s %10.2f %9.0f%%   (static partitioning, experiment 2)\n\n",
		"none", static.BatteryLifeH, static.BatteryLifeH/2/baseline*100)

	fmt.Println("rotation in action (period 4 for visibility):")
	pp := p
	pp.RotationPeriod = 4
	var traces [][]node.ModeSpan
	spec := core.Spec{ID: core.Exp2C, Params: pp, UntilS: 9 * pp.FrameDelayS}
	if _, err := core.Simulate(context.Background(), spec, core.Sinks{Traces: &traces}); err != nil {
		panic(err)
	}
	fmt.Println(report.Timeline([]string{"node1", "node2"}, traces, 0, 9*pp.FrameDelayS, 90))
}
