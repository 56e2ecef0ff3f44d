// Governorlab: the four online DVS governors head to head on the
// paper's two-node pipeline (experiment 3A). Both stages start at the
// full 206.4 MHz — the clock the paper's offline Table-driven analysis
// would only lower with the profile in hand — and each governor must
// discover the sustainable clock online, frame by frame, from measured
// slack and queue pressure alone.
//
// The static policy never moves, so it reproduces the expensive
// full-clock baseline. The interval (PAST-style) and PID (Xia & Tian)
// policies converge to the lowest feasible table point within a few
// frames and hold it; the buffer policy walks down one level at a time
// on sustained slack. The printout compares battery lifetime, energy
// per delivered frame and deadline behaviour per policy.
package main

import (
	"fmt"

	"dvsim/internal/core"
	"dvsim/internal/report"
)

func main() {
	p := core.DefaultParams()

	fmt.Println("governor study (experiment 3A): 2-node pipeline, compute started at 206.4 MHz")
	fmt.Printf("frame budget D = %.1f s; every run on the same battery budget\n\n", p.FrameDelayS)

	outs, err := core.RunGovernorStudy(p, 0, 0)
	if err != nil {
		panic(err)
	}

	fmt.Println(report.GovernorTable(outs))

	var static core.Outcome
	for _, o := range outs {
		if o.Governor == "static" {
			static = o
		}
	}
	fmt.Printf("\nvs the full-clock static baseline (%.2f h, %.6f mAh/frame):\n",
		static.BatteryLifeH, static.EnergyPerFrameMAh())
	for _, o := range outs {
		if o.Governor == "static" {
			continue
		}
		dLife := o.BatteryLifeH/static.BatteryLifeH - 1
		dEnergy := o.EnergyPerFrameMAh()/static.EnergyPerFrameMAh() - 1
		fmt.Printf("  %-9s %+6.1f%% lifetime, %+6.1f%% energy/frame, %d deadline misses\n",
			o.Governor, 100*dLife, 100*dEnergy, o.TotalDeadlineMisses())
	}

	fmt.Println("\nper-node detail:")
	for _, o := range outs {
		for _, ns := range o.NodeStats {
			fmt.Printf("  %-9s %s: %5d decisions, %3d switches, mean %5.1f MHz, died %5.2f h\n",
				o.Governor, ns.Name, ns.GovDecisions, ns.GovSwitches, ns.GovMeanMHz, ns.DiedAtH)
		}
	}
}
