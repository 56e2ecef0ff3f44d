// Command paperbench regenerates every table and figure of the paper's
// evaluation from the simulated platform: the performance profile
// (Fig 6), the power profile (Fig 7), the partitioning schemes (Fig 8),
// the timing diagrams (Figs 2/3/9 as mode timelines), and the experiment
// summary (Fig 10) with a paper-vs-model comparison.
//
// Usage:
//
//	paperbench            # everything
//	paperbench -fig 8     # one figure: 6, 7, 8, 10, timeline, compare
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"dvsim/internal/battery"
	"dvsim/internal/bench"
	"dvsim/internal/core"
	"dvsim/internal/node"
	"dvsim/internal/report"
	"dvsim/internal/sweep"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 6, 7, 8, 10, timeline, discharge, energy, compare, md, all")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to FILE")
	memprofile := flag.String("memprofile", "", "write a heap profile to FILE at exit")
	traceFile := flag.String("trace", "", "write a runtime execution trace to FILE")
	flag.Parse()

	stopProf, err := bench.StartProfiles(*cpuprofile, *memprofile, *traceFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	p := core.DefaultParams()
	want := func(name string) bool { return *fig == "all" || *fig == name }

	if want("6") {
		fmt.Println(report.Fig6(p.Profile, p.Link))
	}
	if want("7") {
		fmt.Println(report.Fig7(p.Power))
	}
	if want("8") {
		fmt.Println(report.Fig8(p))
	}
	if want("discharge") {
		fmt.Println("Discharge curves of the calibrated pack (the Itsy power monitor's view)")
		fmt.Println(report.DischargePlot(p.Battery, battery.DefaultVoltageModel(),
			[]float64{40, 65, 105, 130}, 72, 14))
	}
	if want("timeline") {
		// The three timing diagrams are independent traced runs; sweep
		// them across cores and print in figure order.
		pr := p
		pr.RotationPeriod = 4
		type tl struct {
			caption string
			id      core.ID
			p       core.Params
			frames  float64
			width   int
			names   []string
		}
		figs := []tl{
			{"Fig 2 — single node (baseline), first three frames",
				core.Exp1, p, 3, 69, []string{"node1"}},
			{"Fig 3 — two pipelined nodes (partitioning), first four frames",
				core.Exp2, p, 4, 80, []string{"node1", "node2"}},
			{"Fig 9 — node rotation across the rotation boundary",
				core.Exp2C, pr, 9, 90, []string{"node1", "node2"}},
		}
		traces := sweep.Run(figs, 0, func(f tl) [][]node.ModeSpan {
			var tr [][]node.ModeSpan
			spec := core.Spec{ID: f.id, Params: f.p, UntilS: f.frames * f.p.FrameDelayS}
			_, err := core.Simulate(context.Background(), spec, core.Sinks{Traces: &tr})
			exitOn(err)
			return tr
		})
		for i, f := range figs {
			fmt.Println(f.caption)
			fmt.Println(report.Timeline(f.names, traces[i], 0, f.frames*f.p.FrameDelayS, f.width))
		}
	}
	if want("10") || want("compare") || want("energy") || want("md") {
		outs, err := core.RunSuite(core.AllExperiments, p, 0)
		exitOn(err)
		if want("10") {
			var fig10 []core.Outcome
			for _, o := range outs {
				for _, id := range core.Fig10Experiments {
					if o.ID == id {
						fig10 = append(fig10, o)
					}
				}
			}
			fmt.Println(report.Fig10(fig10))
		}
		if want("compare") {
			fmt.Println(report.Compare(outs))
		}
		if want("energy") {
			fmt.Println(report.EnergyBreakdown(outs))
		}
		if *fig == "md" {
			fmt.Print(report.MarkdownCompare(outs))
		}
	}
}

// exitOn aborts on a failed run.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
