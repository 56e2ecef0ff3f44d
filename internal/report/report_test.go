package report

import (
	"context"
	"strings"
	"testing"

	"dvsim/internal/atr"
	"dvsim/internal/battery"
	"dvsim/internal/core"
	"dvsim/internal/cpu"
	"dvsim/internal/node"
	"dvsim/internal/serial"
)

// simulate runs a spec, failing the test on error.
func simulate(t *testing.T, s core.Spec, sk core.Sinks) core.Outcome {
	t.Helper()
	out, err := core.Simulate(context.Background(), s, sk)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// traced returns each node's mode spans over an experiment's first
// until seconds.
func traced(t *testing.T, id core.ID, p core.Params, until float64) [][]node.ModeSpan {
	t.Helper()
	var traces [][]node.ModeSpan
	simulate(t, core.Spec{ID: id, Params: p, UntilS: until}, core.Sinks{Traces: &traces})
	return traces
}

func TestTableAlignsColumns(t *testing.T) {
	tb := NewTable("a", "bbbb")
	tb.Add("xxxxx", 1)
	tb.Add("y", 22)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines: %q", len(lines), out)
	}
	// All rows the same rendered width (trailing pad aside).
	if !strings.HasPrefix(lines[0], "a    ") {
		t.Errorf("header not padded: %q", lines[0])
	}
	if !strings.Contains(lines[2], "xxxxx") || !strings.Contains(lines[3], "22") {
		t.Errorf("rows wrong: %q", out)
	}
}

func TestBar(t *testing.T) {
	if got := Bar(5, 10, 10); got != "#####" {
		t.Errorf("Bar = %q", got)
	}
	if got := Bar(20, 10, 10); got != "##########" {
		t.Errorf("overflow Bar = %q", got)
	}
	if Bar(1, 0, 10) != "" || Bar(-1, 10, 10) != "" {
		t.Error("degenerate bars should be empty")
	}
}

func TestFig6MentionsEveryBlock(t *testing.T) {
	out := Fig6(atr.Default(), serial.DefaultLink())
	for _, want := range []string{"Target Detection", "FFT", "IFFT", "Compute Distance", "10.10", "1.10", "80 kbps"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig6 missing %q:\n%s", want, out)
		}
	}
}

func TestFig7ListsAllOperatingPoints(t *testing.T) {
	out := Fig7(cpu.DefaultPowerModel())
	for _, want := range []string{"59.0", "206.4", "0.919", "1.393"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig7 missing %q", want)
		}
	}
	if strings.Count(out, "\n") < 13 {
		t.Errorf("Fig7 too short:\n%s", out)
	}
}

func TestFig8ShowsPaperRates(t *testing.T) {
	out := Fig8(core.DefaultParams())
	for _, want := range []string{"59.0", "103.2", "191.7", "132.7", "88.5", "> 206.4", "10.7", "0.7", "17.6", "7.6"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig8 missing %q:\n%s", want, out)
		}
	}
}

func TestFig10AndCompareRender(t *testing.T) {
	outs := []core.Outcome{
		{ID: core.Exp1, Label: core.Label(core.Exp1), Nodes: 1, Frames: 9600, BatteryLifeH: 6.13, TnormH: 6.13, Rnorm: 1.0},
		{ID: core.Exp2C, Label: core.Label(core.Exp2C), Nodes: 2, Frames: 25000, BatteryLifeH: 16.0, TnormH: 8.0, Rnorm: 1.31},
	}
	fig := Fig10(outs)
	if !strings.Contains(fig, "131%") || !strings.Contains(fig, "(2C)") {
		t.Errorf("Fig10 output:\n%s", fig)
	}
	cmp := Compare(outs)
	if !strings.Contains(cmp, "145%") || !strings.Contains(cmp, "9600") {
		t.Errorf("Compare output:\n%s", cmp)
	}
}

func TestTimelineDrawsModes(t *testing.T) {
	traces := [][]node.ModeSpan{
		{
			{Mode: cpu.Comm, Start: 0, End: 5},
			{Mode: cpu.Compute, Start: 5, End: 8},
			{Mode: cpu.Idle, Start: 8, End: 10},
		},
	}
	out := Timeline([]string{"node1"}, traces, 0, 10, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	row := lines[len(lines)-1]
	if !strings.Contains(row, "~~~~~###") {
		t.Errorf("timeline row %q", row)
	}
	if !strings.Contains(row, ".") {
		t.Errorf("idle not drawn: %q", row)
	}
}

func TestTimelineFromTracedRun(t *testing.T) {
	// Integration: trace the first three frames of the baseline and check
	// the diagram shows the RECV-PROC-SEND rhythm (Fig 2).
	p := core.DefaultParams()
	traces := traced(t, core.Exp1, p, 3*p.FrameDelayS)
	if len(traces) != 1 || len(traces[0]) < 6 {
		t.Fatalf("trace shape: %d nodes, %d spans", len(traces), len(traces[0]))
	}
	out := Timeline([]string{"node1"}, traces, 0, 3*p.FrameDelayS, 69)
	if !strings.Contains(out, "~") || !strings.Contains(out, "#") {
		t.Errorf("traced timeline:\n%s", out)
	}
	// Comm and compute alternate: the row must contain a ~ run followed
	// by a # run at least twice.
	row := strings.Split(strings.TrimRight(out, "\n"), "\n")
	last := row[len(row)-1]
	if strings.Count(last, "~#") < 2 && strings.Count(last, "#~") < 2 {
		t.Errorf("no alternation in %q", last)
	}
}

func TestTimelineTwoNodeOverlap(t *testing.T) {
	// Fig 3: while node1 receives frame I+1, node2 computes frame I.
	p := core.DefaultParams()
	traces := traced(t, core.Exp2, p, 4*p.FrameDelayS)
	if len(traces) != 2 {
		t.Fatalf("%d nodes traced", len(traces))
	}
	out := Timeline([]string{"node1", "node2"}, traces, 0, 4*p.FrameDelayS, 80)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("timeline:\n%s", out)
	}
	n1, n2 := lines[len(lines)-2], lines[len(lines)-1]
	// Somewhere both rows are busy at the same column.
	overlap := false
	for i := 8; i < len(n1) && i < len(n2); i++ {
		if (n1[i] == '#' || n1[i] == '~') && (n2[i] == '#' || n2[i] == '~') {
			overlap = true
			break
		}
	}
	if !overlap {
		t.Errorf("no pipeline overlap:\n%s", out)
	}
}

func TestSpanClip(t *testing.T) {
	spans := []node.ModeSpan{
		{Mode: cpu.Idle, Start: 0, End: 4},
		{Mode: cpu.Comm, Start: 4, End: 8},
		{Mode: cpu.Compute, Start: 8, End: 12},
	}
	got := SpanClip(spans, 5, 9)
	if len(got) != 2 {
		t.Fatalf("%d spans", len(got))
	}
	if got[0].Start != 5 || got[0].End != 8 || got[1].Start != 8 || got[1].End != 9 {
		t.Fatalf("clip: %+v", got)
	}
}

func TestDischargePlot(t *testing.T) {
	params := core.DefaultItsyBatteryParams()
	out := DischargePlot(func() battery.Model { return params.New() },
		battery.DefaultVoltageModel(), []float64{65, 130}, 60, 12)
	if !strings.Contains(out, "1 =") || !strings.Contains(out, "2 =") {
		t.Fatalf("legend missing:\n%s", out)
	}
	// The 130 mA curve must die far earlier than the 65 mA one (the
	// rate-capacity cliff). At 65 mA the undervoltage cutoff trips a
	// touch before coulometric exhaustion (12.6 h vs 12.9 h).
	if !strings.Contains(out, "dies 3.4") {
		t.Errorf("130 mA death not at ≈3.4 h:\n%s", out)
	}
	if !strings.Contains(out, "dies 12.6") {
		t.Errorf("65 mA cutoff not at ≈12.6 h:\n%s", out)
	}
	if DischargePlot(func() battery.Model { return params.New() },
		battery.DefaultVoltageModel(), nil, 60, 12) != "" {
		t.Error("no curves should render empty")
	}
	if DischargePlot(func() battery.Model { return params.New() },
		battery.DefaultVoltageModel(), []float64{65}, 5, 2) != "" {
		t.Error("degenerate size should render empty")
	}
}

func TestEnergyBreakdown(t *testing.T) {
	outs, err := core.RunSuite([]core.ID{core.Exp1, core.Exp1A}, core.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	out := EnergyBreakdown(outs)
	if !strings.Contains(out, "comm share") || !strings.Contains(out, "node1") {
		t.Fatalf("breakdown:\n%s", out)
	}
	// DVS during I/O must shrink the comm share versus the baseline:
	// baseline comm charge is 110 mA × 1.2 s against 130 mA × 1.1 s of
	// compute (≈48%); at 59 MHz the same transfers cost 40 mA (≈25%).
	s1 := outs[0].NodeStats[0]
	s1A := outs[1].NodeStats[0]
	f1 := s1.CommMAh / (s1.CommMAh + s1.ComputeMAh + s1.IdleMAh)
	f1A := s1A.CommMAh / (s1A.CommMAh + s1A.ComputeMAh + s1A.IdleMAh)
	if f1 < 0.42 || f1 > 0.54 {
		t.Errorf("baseline comm share %v, want ≈0.48", f1)
	}
	if f1A > 0.30 {
		t.Errorf("DVS-I/O comm share %v, want ≈0.25", f1A)
	}
}

func TestMarkdownCompare(t *testing.T) {
	outs := []core.Outcome{
		{ID: core.Exp1, Label: "Baseline", Nodes: 1, Frames: 9594, BatteryLifeH: 6.129, Rnorm: 1},
		{ID: core.Exp0A, Label: "No I/O", Nodes: 1, Frames: 11127, BatteryLifeH: 3.4},
	}
	out := MarkdownCompare(outs)
	if !strings.Contains(out, "| 1 | Baseline | 6.13 | 6.13 | 1.00 | 9594 | 9600 | 100% | 100% |") {
		t.Fatalf("markdown:\n%s", out)
	}
	if !strings.Contains(out, "| 0A | No I/O | 3.40 | 3.40 | 1.00 | 11127 | 11500 | — | — |") {
		t.Fatalf("markdown 0A row:\n%s", out)
	}
}
