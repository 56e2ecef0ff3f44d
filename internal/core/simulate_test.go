package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"dvsim/internal/assert"
	"dvsim/internal/atr"
	"dvsim/internal/cpu"
	"dvsim/internal/governor"
	"dvsim/internal/node"
	"dvsim/internal/topology"
)

// mustSimulate runs a spec, failing the test on any error.
func mustSimulate(t testing.TB, s Spec, sk Sinks) Outcome {
	t.Helper()
	out, err := Simulate(context.Background(), s, sk)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// mustSuite is RunSuite, failing the test on any error.
func mustSuite(t testing.TB, ids []ID, p Params, workers int) []Outcome {
	t.Helper()
	outs, err := RunSuite(ids, p, workers)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// staticParams is the calibrated platform with node rotation off:
// custom stages and graphs read the rotation period from Params, and
// the default period belongs to experiment 2C.
func staticParams() Params {
	p := DefaultParams()
	p.RotationPeriod = 0
	return p
}

// TestSimulateRejectsBadSpecs: every spec the simulator cannot run is
// an error wrapping ErrBadSpec, never a panic, and Check names the same
// error without running anything.
func TestSimulateRejectsBadSpecs(t *testing.T) {
	p := staticParams()
	one := []StageConfig{{Span: atr.FullSpan, Compute: cpu.MaxPoint, Comm: cpu.MaxPoint}}
	three := append(append([]StageConfig{}, one...), one[0], one[0])
	mesh := topology.Mesh(4, 2)
	rotating := DefaultParams()
	broken := &assert.Spec{Name: "bad", Assertions: []assert.Assertion{{Name: "x", Type: "no-such-operator"}}}
	withCatalog := p
	withCatalog.Assertions = broken
	badGovernor := p
	badGovernor.Governor = governor.Spec{Name: "interval", Tuning: map[string]float64{"alpha": 2}}
	tight := p
	tight.FrameDelayS = 0.5
	for _, c := range []struct {
		name string
		spec Spec
	}{
		{"unknown experiment", Spec{ID: "9Z", Params: p}},
		{"no system", Spec{Label: "empty", Params: p}},
		{"experiment and stages", Spec{ID: Exp1, Stages: one, Params: p}},
		{"ack on three stages", Spec{Stages: three, Label: "ack3", Ack: true, Params: p}},
		{"ack on an experiment", Spec{ID: Exp1, Ack: true, Params: p}},
		{"invalid graph", Spec{Graph: &topology.Graph{}, Label: "g", Params: p}},
		{"ack on a mesh", Spec{Graph: mesh, Label: "g", Ack: true, Params: p}},
		{"rotation on a mesh", Spec{Graph: mesh, Label: "g", Params: rotating}},
		{"native on a mesh", Spec{Graph: mesh, Label: "g", Native: &Native{}, Params: p}},
		{"3A without a governor", Spec{ID: Exp3A, Params: p}},
		{"negative frames", Spec{ID: Exp1, Params: p, Frames: -1}},
		{"negative window", Spec{ID: Exp1, Params: p, UntilS: -1}},
		{"bad catalog", Spec{ID: Exp1, Params: withCatalog}},
		{"governor tuning out of range", Spec{ID: Exp2, Params: badGovernor}},
		{"no feasible partition", Spec{ID: Exp2, Params: tight}},
	} {
		_, err := Simulate(context.Background(), c.spec, Sinks{})
		if !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: err = %v, want ErrBadSpec", c.name, err)
		}
		if cerr := c.spec.Check(); cerr == nil || err == nil || cerr.Error() != err.Error() {
			t.Errorf("%s: Check() = %v, Simulate %v", c.name, cerr, err)
		}
	}
}

// eventCounts runs a spec with a log (added to sk) and counts its
// records by event kind.
func eventCounts(t *testing.T, s Spec, sk Sinks) map[string]int {
	t.Helper()
	var buf bytes.Buffer
	sk.Log = &buf
	out := mustSimulate(t, s, sk)
	records := decodeLog(t, &buf)
	if len(records) != out.Records {
		t.Fatalf("wrote %d records, decoded %d", out.Records, len(records))
	}
	counts := map[string]int{}
	for _, r := range records {
		counts[r.Event]++
	}
	return counts
}

// TestSimulateLogsEveryEngine: the one recorder observes every engine —
// the no-I/O node, the governed 3A pipeline and a graph fleet — not
// only experiments 1…2D.
func TestSimulateLogsEveryEngine(t *testing.T) {
	p := staticParams()
	noIO := eventCounts(t, Spec{ID: Exp0A, Params: p, UntilS: 120}, Sinks{})
	if noIO["mode"] == 0 || noIO["sample"] == 0 || noIO["result"] != 0 {
		t.Errorf("0A log: %v, want mode and sample records and no results", noIO)
	}

	pg := p
	pg.Governor = governor.Spec{Name: "pid"}
	if gov := eventCounts(t, Spec{ID: Exp3A, Params: pg, UntilS: 120}, Sinks{}); gov["govern"] == 0 {
		t.Errorf("3A log has no govern records: %v", gov)
	}

	tree := eventCounts(t, Spec{Graph: topology.Tree(2, 2), Label: "tree", Params: p, Frames: 20}, Sinks{})
	for _, kind := range []string{"mode", "result", "latency", "link", "sample"} {
		if tree[kind] == 0 {
			t.Errorf("fleet log has no %q records: %v", kind, tree)
		}
	}
	if tree["result"] != 20 {
		t.Errorf("fleet log has %d results for 20 rounds", tree["result"])
	}
}

// TestSimulateTracesWindow: the trace sink returns one span list per
// node, covering the window and nothing past it.
func TestSimulateTracesWindow(t *testing.T) {
	p := DefaultParams()
	until := 4 * p.FrameDelayS
	var traces [][]node.ModeSpan
	mustSimulate(t, Spec{ID: Exp2, Params: p, UntilS: until}, Sinks{Traces: &traces})
	if len(traces) != 2 {
		t.Fatalf("%d traces for a two-node pipeline", len(traces))
	}
	for i, tr := range traces {
		if len(tr) == 0 {
			t.Fatalf("node %d has no spans", i+1)
		}
		if end := float64(tr[len(tr)-1].End); end > until+1e-9 {
			t.Errorf("node %d trace ends at %v, past the %v s window", i+1, end, until)
		}
	}
}
