// Partitioning: enumerate the paper's three two-node schemes (Fig 8),
// print the derived clock rates, then actually run the two feasible
// schemes to battery exhaustion — showing why scheme 1 (split after
// target detection) is the right choice and how badly the
// communication-heavy scheme 2 does.
package main

import (
	"context"
	"fmt"

	"dvsim/internal/core"
	"dvsim/internal/report"
)

func main() {
	p := core.DefaultParams()
	fmt.Println(report.Fig8(p))

	schemes := p.TwoNodeSchemes()
	baseline := core.Run(core.Exp1, p).BatteryLifeH

	fmt.Printf("simulated to battery exhaustion (baseline T(1) = %.2f h):\n\n", baseline)
	for i, s := range schemes {
		if !s.Feasible {
			fmt.Printf("scheme %d: infeasible — node1 would need %.0f MHz (max 206.4)\n",
				i+1, s.Stages[0].RequiredMHz)
			continue
		}
		static := p
		static.RotationPeriod = 0
		o, err := core.Simulate(context.Background(), core.Spec{
			Stages: core.StagesFromPartition(s, false),
			Label:  fmt.Sprintf("scheme %d", i+1),
			Params: static,
		}, core.Sinks{})
		if err != nil {
			panic(err)
		}
		rnorm := o.BatteryLifeH / 2 / baseline
		fmt.Printf("scheme %d: (%v | %v)\n", i+1, s.Stages[0].Span, s.Stages[1].Span)
		fmt.Printf("   clocks %.1f / %.1f MHz -> %d frames in %.2f h (Rnorm %.0f%%)\n",
			s.Stages[0].Compute.FreqMHz, s.Stages[1].Compute.FreqMHz,
			o.Frames, o.BatteryLifeH, rnorm*100)
		for _, ns := range o.NodeStats {
			status := "survived"
			if ns.DiedAtH > 0 {
				status = fmt.Sprintf("died at %.2f h", ns.DiedAtH)
			}
			fmt.Printf("   %s: %s, %.0f mAh delivered, final charge %.0f%%\n",
				ns.Name, status, ns.DeliveredMAh, ns.FinalSoC*100)
		}
		fmt.Println()
	}
	fmt.Println("the unbalanced load is the pitfall (§6.4): the node with the bigger")
	fmt.Println("span always dies first while its partner strands charge.")
}
