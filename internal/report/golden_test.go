package report

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dvsim/internal/core"
	"dvsim/internal/fault"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update. Golden files pin the exact rendered figures so any
// drift in the calibrated reproduction is caught immediately.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(want) != got {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenFig6(t *testing.T) {
	p := core.DefaultParams()
	checkGolden(t, "fig6", Fig6(p.Profile, p.Link))
}

func TestGoldenFig7(t *testing.T) {
	p := core.DefaultParams()
	checkGolden(t, "fig7", Fig7(p.Power))
}

func TestGoldenFig8(t *testing.T) {
	checkGolden(t, "fig8", Fig8(core.DefaultParams()))
}

func TestGoldenTimelineBaseline(t *testing.T) {
	p := core.DefaultParams()
	tr := traced(t, core.Exp1, p, 3*p.FrameDelayS)
	checkGolden(t, "timeline_fig2", Timeline([]string{"node1"}, tr, 0, 3*p.FrameDelayS, 69))
}

// TestGoldenFaultCSV pins the CSV rendering of a deterministic
// fault-injected run, fault columns (crashes, restarts,
// frames_abandoned) included: the seeded scenario makes the whole row
// reproducible byte for byte.
func TestGoldenFaultCSV(t *testing.T) {
	p := core.DefaultParams()
	best, err := p.BestTwoNodeScheme()
	if err != nil {
		t.Fatal(err)
	}
	p.RotationPeriod = 0
	p.Faults = &fault.Scenario{
		Seed:    7,
		Links:   []fault.LinkFault{{DropRate: 0.05, GarbleRate: 0.02}},
		Crashes: []fault.Crash{{Node: "node2", AtS: 100}},
	}
	out := simulate(t, core.Spec{
		Stages: core.StagesFromPartition(best, true),
		Label:  "2D-sample",
		Ack:    true,
		Params: p,
		Frames: 150,
	}, core.Sinks{})
	checkGolden(t, "fault_csv", CSV([]core.Outcome{out}))
}

// TestGoldenGovernorCSV pins the experiment-3A export byte for byte: a
// bounded run of all four policies, decisions and switches included.
// Every observation feeding the governors comes off the simulation
// clock, so the whole table is deterministic.
func TestGoldenGovernorCSV(t *testing.T) {
	outs, err := core.RunGovernorStudy(core.DefaultParams(), 0, 300)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "governor_csv", GovernorCSV(outs))
}

func TestGoldenCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	outs, err := core.RunSuite(core.AllExperiments, core.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "compare", Compare(outs))
	checkGolden(t, "markdown_compare", MarkdownCompare(outs))
}
