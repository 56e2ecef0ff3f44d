package core_test

import (
	"context"
	"fmt"

	"dvsim/internal/core"
)

// Reproduce the paper's best partitioning scheme (Fig 8, scheme 1).
func ExampleParams_BestTwoNodeScheme() {
	p := core.DefaultParams()
	s, _ := p.BestTwoNodeScheme()
	fmt.Printf("%v at %.1f MHz | %v at %.1f MHz\n",
		s.Stages[0].Span, s.Stages[0].Compute.FreqMHz,
		s.Stages[1].Span, s.Stages[1].Compute.FreqMHz)
	// Output:
	// Target Detection at 59.0 MHz | FFT + IFFT + Compute Distance at 103.2 MHz
}

// Run the paper's baseline experiment; the calibrated platform lands on
// the published 6.13 h.
func ExampleRun() {
	o := core.Run(core.Exp1, core.DefaultParams())
	fmt.Printf("T(1) = %.2f h, paper %.2f h\n", o.BatteryLifeH, core.PaperHours(core.Exp1))
	// Output:
	// T(1) = 6.13 h, paper 6.13 h
}

// Build a custom two-node pipeline with DVS during I/O and node rotation
// — the paper's winning combination — and run it to battery exhaustion.
func ExampleSimulate() {
	p := core.DefaultParams()
	p.RotationPeriod = 100
	best, _ := p.BestTwoNodeScheme()
	spec := core.Spec{Stages: core.StagesFromPartition(best, true), Label: "rotation", Params: p}
	o, err := core.Simulate(context.Background(), spec, core.Sinks{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d nodes, %.1f h\n", o.Nodes, o.BatteryLifeH)
	// Output:
	// 2 nodes, 16.2 h
}
