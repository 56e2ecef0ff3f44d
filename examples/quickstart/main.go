// Quickstart: build the calibrated Itsy platform, run the paper's best
// technique (distributed DVS with node rotation, experiment 2C), and
// print the outcome next to the published numbers.
package main

import (
	"fmt"

	"dvsim/internal/core"
)

func main() {
	// DefaultParams is the platform as calibrated against the paper:
	// the ATR profile (Fig 6), the SA-1100 power model (Fig 7), the
	// 80 kbps serial link, and a two-well battery solved from the four
	// single-node anchor experiments.
	p := core.DefaultParams()

	fmt.Println("battery:", core.DefaultItsyBatteryParams())
	fmt.Printf("frame delay D = %.1f s, rotation every %d frames\n\n",
		p.FrameDelayS, p.RotationPeriod)

	// RunSuite fills the normalized metrics against the baseline.
	outs, err := core.RunSuite([]core.ID{core.Exp1, core.Exp2C}, p, 0)
	if err != nil {
		panic(err)
	}
	for _, o := range outs {
		fmt.Printf("(%s) %s\n", o.ID, o.Label)
		fmt.Printf("    battery life %6.2f h   (paper: %5.2f h)\n", o.BatteryLifeH, core.PaperHours(o.ID))
		fmt.Printf("    frames       %6d   (paper: %5d)\n", o.Frames, core.PaperFrames(o.ID))
		fmt.Printf("    normalized   %6.0f%%\n\n", o.Rnorm*100)
		for _, ns := range o.NodeStats {
			fmt.Printf("    %s: processed %d frames, %d rotations, delivered %.0f mAh\n",
				ns.Name, ns.FramesProcessed, ns.Rotations, ns.DeliveredMAh)
		}
		fmt.Println()
	}
}
