package core

import (
	"reflect"
	"testing"

	"dvsim/internal/assert"
	"dvsim/internal/cpu"
	"dvsim/internal/fault"
	"dvsim/internal/governor"
	"dvsim/internal/node"
	"dvsim/internal/sim"
	"dvsim/internal/topology"
)

// fleet runs a graph with rotation off (it is a ring protocol; the
// default period belongs to experiment 2C).
func fleet(t *testing.T, label string, p Params, g *topology.Graph, frames int) Outcome {
	t.Helper()
	p.RotationPeriod = 0
	return mustSimulate(t, Spec{Graph: g, Label: label, Params: p, Frames: frames}, Sinks{})
}

// TestFleetChainRoutesThroughPipeline: a serial topology graph must be
// exactly the host-paced pipeline under another spec — same frames, same
// node accounting — so manifests expressing the paper's shapes inherit
// all of its behavior (rotation, recovery, telemetry).
func TestFleetChainRoutesThroughPipeline(t *testing.T) {
	p := staticParams()
	g := topology.Serial(3, topology.Config{})
	got := fleet(t, "serial/3", p, g, 40)

	stages := make([]StageConfig, len(g.Nodes))
	for i, ns := range g.Nodes {
		stages[i] = StageConfig{Compute: ns.Compute, Comm: ns.Comm, Idle: ns.Idle, RefS: ns.RefS, OutKB: ns.OutKB}
	}
	want := mustSimulate(t, Spec{Stages: stages, Label: "serial/3", Params: p, Frames: 40}, Sinks{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chain topology diverged from the same stages:\n got %+v\nwant %+v", got, want)
	}
	if got.Frames != 40 {
		t.Fatalf("bounded chain delivered %d frames, want 40", got.Frames)
	}
}

// TestFleetTreeDelivers: a bounded aggregation tree delivers exactly one
// aggregate per round, with every vertex doing work.
func TestFleetTreeDelivers(t *testing.T) {
	p := DefaultParams()
	g := topology.Tree(2, 2, topology.Config{})
	out := fleet(t, "tree/2x2", p, g, 20)
	if out.Nodes != 7 {
		t.Fatalf("tree has %d nodes, want 7", out.Nodes)
	}
	if out.Frames != 20 {
		t.Fatalf("tree delivered %d aggregates, want 20", out.Frames)
	}
	for _, ns := range out.NodeStats {
		if ns.FramesProcessed == 0 {
			t.Fatalf("node %s processed nothing", ns.Name)
		}
	}
	// Determinism: an identical run is byte-identical in outcome.
	again := fleet(t, "tree/2x2", p, g, 20)
	if !reflect.DeepEqual(out, again) {
		t.Fatal("tree run is not deterministic")
	}
}

// TestFleetWideRoundRobin: a wide pipeline splits frames across stage
// replicas; every frame still arrives exactly once.
func TestFleetWideRoundRobin(t *testing.T) {
	p := DefaultParams()
	g := topology.Wide(2, 2, topology.Config{})
	out := fleet(t, "wide/2x2", p, g, 40)
	if out.Frames != 40 {
		t.Fatalf("wide pipeline delivered %d frames, want 40", out.Frames)
	}
	// Each stage-1 replica sees every second frame.
	for _, name := range []string{"node1", "node2"} {
		for _, ns := range out.NodeStats {
			if ns.Name == name && ns.FramesProcessed != 20 {
				t.Fatalf("%s processed %d frames, want 20", name, ns.FramesProcessed)
			}
		}
	}
}

// TestFleetMeshUnderFaults: seeded link faults on a mesh inject
// deterministically and the fleet keeps producing.
func TestFleetMeshUnderFaults(t *testing.T) {
	p := DefaultParams()
	p.Faults = &fault.Scenario{
		Seed:  7,
		Links: []fault.LinkFault{{DropRate: 0.05, GarbleRate: 0.02}},
	}
	g := topology.Mesh(4, 2, topology.Config{})
	out := fleet(t, "mesh/4x2", p, g, 60)
	if out.FaultStats.Drops+out.FaultStats.Garbles == 0 {
		t.Fatal("scenario injected nothing")
	}
	if out.Frames == 0 {
		t.Fatal("mesh delivered nothing under a 5% drop rate")
	}
	again := fleet(t, "mesh/4x2", p, g, 60)
	if !reflect.DeepEqual(out, again) {
		t.Fatal("faulted mesh run is not deterministic")
	}
}

// TestFleetGoverned: the per-round governor control loop runs on the
// graph fleet and its accounting lands in NodeStats.
func TestFleetGoverned(t *testing.T) {
	p := DefaultParams()
	p.Governor = governor.Spec{Name: "interval"}
	g := topology.Tree(2, 2, topology.Config{})
	out := fleet(t, "tree/governed", p, g, 30)
	if out.Governor == "" {
		t.Fatal("outcome does not name the governor")
	}
	decisions := 0
	for _, ns := range out.NodeStats {
		decisions += ns.GovDecisions
	}
	if decisions == 0 {
		t.Fatal("no governor decisions on a governed fleet")
	}
}

// TestFleetAssertions: the runtime-verification layer works over fleet
// telemetry: a satisfiable invariant checks clean, an unsatisfiable one
// is caught.
func TestFleetAssertions(t *testing.T) {
	min, max := 0.0, 1.0
	clean := &assert.Spec{
		Name: "fleet-sanity",
		Assertions: []assert.Assertion{
			{
				Name:   "soc-in-range",
				Type:   "bound",
				Select: assert.Select{Event: "sample", Metric: "battery_soc"},
				Min:    &min, Max: &max,
			},
			{
				Name:      "soc-monotone",
				Type:      "monotone",
				Select:    assert.Select{Event: "sample", Metric: "battery_soc"},
				Direction: "nonincreasing",
				Tol:       1e-9,
			},
		},
	}
	p := DefaultParams()
	p.Assertions = clean
	g := topology.Mesh(3, 1, topology.Config{})
	out := fleet(t, "mesh/checked", p, g, 20)
	if out.AssertionsRun != 2 {
		t.Fatalf("ran %d assertions, want 2", out.AssertionsRun)
	}
	if out.ViolationTotal != 0 {
		t.Fatalf("clean spec reported %d violations: %+v", out.ViolationTotal, out.Violations)
	}

	impossible := -1.0
	broken := &assert.Spec{
		Name: "fleet-broken",
		Assertions: []assert.Assertion{{
			Name:   "soc-negative",
			Type:   "bound",
			Select: assert.Select{Event: "sample", Metric: "battery_soc"},
			Max:    &impossible,
		}},
	}
	p.Assertions = broken
	out = fleet(t, "mesh/broken", p, g, 20)
	if out.ViolationTotal == 0 {
		t.Fatal("unsatisfiable spec reported no violations")
	}
}

// TestRunExperimentBound: Spec.Frames caps a pipeline experiment.
func TestRunExperimentBound(t *testing.T) {
	out := mustSimulate(t, Spec{ID: Exp2, Params: DefaultParams(), Frames: 50}, Sinks{})
	if out.Frames != 50 {
		t.Fatalf("bounded run delivered %d frames, want 50", out.Frames)
	}
}

// TestRunGovernorPolicyMatchesStudy: a single-policy 3A spec is one
// point of RunGovernorStudy, byte for byte.
func TestRunGovernorPolicyMatchesStudy(t *testing.T) {
	p := DefaultParams()
	study, err := RunGovernorStudy(p, 0, 120)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range GovernorStudySpecs() {
		pg := p
		pg.Governor = g
		got := mustSimulate(t, Spec{ID: Exp3A, Params: pg, Frames: 120}, Sinks{})
		if !reflect.DeepEqual(got, study[i]) {
			t.Fatalf("policy %s diverged from the study run", g.String())
		}
	}
}

// TestFleetSourceCrashRestart: a graph source crashed mid-frame and
// restarted later resumes at the first frame time of its sequence after
// the outage, at its normal pace rather than in a burst through the
// frames it slept over, and the outage lands in its NodeStats.
func TestFleetSourceCrashRestart(t *testing.T) {
	p := DefaultParams()
	// Two interleaved source-sinks: node1 owns the even frames, node2
	// the odd ones, each delivering straight to the host.
	g := topology.Wide(1, 2, topology.Config{})
	// node1 crashes half a second into frame 4 (it starts at 4·D = 9.2 s).
	const crashAt, restartAt = 9.7, 31.0
	p.Faults = &fault.Scenario{Crashes: []fault.Crash{
		{Node: "node1", AtS: crashAt, RestartAfterS: restartAt - crashAt},
	}}
	p.RotationPeriod = 0
	var traces [][]node.ModeSpan
	out := mustSimulate(t, Spec{Graph: g, Label: "wide/crash", Params: p, Frames: 40},
		Sinks{Traces: &traces})

	st := out.NodeStats[0]
	if st.Name != "node1" || st.Crashes != 1 || st.Restarts != 1 {
		t.Fatalf("node1 stats: %+v, want one crash and one restart", st)
	}
	d := p.FrameDelayS
	// The first even frame whose time is not before the restart.
	resume := 0
	for float64(resume)*d < restartAt {
		resume += 2
	}
	var starts []sim.Time
	done := 0 // frames finished before the crash
	for _, sp := range traces[0] {
		switch {
		case sp.Mode != cpu.Compute:
		case float64(sp.Start) >= restartAt:
			starts = append(starts, sp.Start)
		case float64(sp.End) < crashAt:
			done++
		}
	}
	if len(starts) == 0 {
		t.Fatal("node1 computed nothing after its restart")
	}
	for i, s := range starts {
		want := sim.Time(float64(resume+2*i) * d)
		if s != want {
			t.Fatalf("post-restart compute %d starts at %v s, want frame %d at %v s",
				i, float64(s), resume+2*i, float64(want))
		}
	}
	// Frames 0 and 2 before the crash (4 is lost mid-compute), then the
	// resumed sequence up to the bound.
	if done != 2 {
		t.Fatalf("node1 finished %d frames before the crash, want 2", done)
	}
	if want := done + (40-resume)/2; st.FramesProcessed != want {
		t.Fatalf("node1 processed %d frames, want %d", st.FramesProcessed, want)
	}
}

// TestFleetBufferSeesDownstreamWait: on a graph, the buffer governor's
// congestion signal is live — a sensor whose aggregator is too slow to
// keep up observes its outbound transfer waiting for the aggregator.
func TestFleetBufferSeesDownstreamWait(t *testing.T) {
	p := DefaultParams()
	p.RotationPeriod = 0
	p.Governor = governor.Spec{Name: "buffer"}
	// Each aggregator input costs 2 s of reference work: far more than
	// the 2.3 s frame delay once two sensors feed it.
	g := topology.Mesh(2, 1, topology.Config{AggRefS: 2})
	maxWait := 0.0
	mustSimulate(t, Spec{Graph: g, Label: "mesh/slow", Params: p, Frames: 20}, Sinks{
		OnGovern: func(name string, ev governor.Event) {
			if (name == "node1" || name == "node2") && ev.Obs.DownWaitS > maxWait {
				maxWait = ev.Obs.DownWaitS
			}
		},
	})
	if maxWait <= 0 {
		t.Fatal("no sensor observed a downstream wait behind a saturated aggregator")
	}
}
