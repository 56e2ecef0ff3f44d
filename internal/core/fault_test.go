package core

import (
	"bytes"
	"testing"

	"dvsim/internal/fault"
	"dvsim/internal/serial"
)

func lossyLinks() *fault.Scenario {
	return &fault.Scenario{
		Seed:  7,
		Links: []fault.LinkFault{{DropRate: 0.05, GarbleRate: 0.02}},
	}
}

// bestStages is Fig 8's best two-node scheme with DVS during I/O.
func bestStages(t *testing.T, p Params) []StageConfig {
	t.Helper()
	best, err := p.BestTwoNodeScheme()
	if err != nil {
		t.Fatal(err)
	}
	return StagesFromPartition(best, true)
}

// TestFaultTelemetryDeterministic is the acceptance criterion: two runs
// of the same seeded fault scenario produce byte-identical telemetry.
func TestFaultTelemetryDeterministic(t *testing.T) {
	p := DefaultParams()
	p.Faults = lossyLinks()
	var a, b bytes.Buffer
	mustSimulate(t, Spec{ID: Exp2, Params: p, UntilS: 300}, Sinks{Log: &a})
	mustSimulate(t, Spec{ID: Exp2, Params: p, UntilS: 300}, Sinks{Log: &b})
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("telemetry logs differ between identical fault-injected runs")
	}
	counts := map[string]int{}
	for _, r := range decodeLog(t, &a) {
		counts[r.Event]++
		switch r.Event {
		case "fault":
			if r.Fault != "drop" && r.Fault != "garble" {
				t.Fatalf("bad fault record: %+v", r)
			}
			if r.From == "" || r.To == "" {
				t.Fatalf("fault record without ports: %+v", r)
			}
		case "retry":
			if r.Attempt < 1 || r.Value <= 0 || r.Fault == "" {
				t.Fatalf("bad retry record: %+v", r)
			}
		}
	}
	if counts["fault"] == 0 || counts["retry"] == 0 {
		t.Fatalf("no fault/retry events in a lossy run (counts %v)", counts)
	}
}

// TestFaultRecoveryViaRetransmit checks the other half of the
// acceptance criterion: dropped transfers are recovered by the bounded
// retransmit, visible in the PortStats retry counters, and the pipeline
// still delivers its frames.
func TestFaultRecoveryViaRetransmit(t *testing.T) {
	p := staticParams()
	p.Faults = lossyLinks()
	out := mustSimulate(t, Spec{Stages: bestStages(t, p), Label: "faulty", Params: p, Frames: 300}, Sinks{})
	if out.FaultStats.Drops == 0 || out.FaultStats.Garbles == 0 {
		t.Fatalf("no injected faults: %+v", out.FaultStats)
	}
	var retries, giveUps int
	for _, ps := range out.PortStats {
		retries += ps.TxRetries
		giveUps += ps.TxGiveUps
	}
	// Every fault that left budget on the table was retransmitted:
	// faults ≈ retries + give-ups (a give-up's final fault is not
	// retried). Allow a little slack for attempts cut short by deaths.
	if retries+giveUps < out.FaultStats.Total()-5 {
		t.Fatalf("%d retries + %d give-ups for %d faults: recovery not happening",
			retries, giveUps, out.FaultStats.Total())
	}
	// Every frame arrives: each fault costs wire time and a backoff, not
	// the payload (non-ack pipeline sends have no deadline to miss).
	if out.Frames != 300 {
		t.Fatalf("delivered %d/300 frames under 7%% wire faults", out.Frames)
	}
}

// TestFaultRetryOverride: a scenario's retry policy replaces the
// platform's. MaxAttempts 1 disables retransmission entirely, so heavy
// loss shows up as give-ups instead of retries.
func TestFaultRetryOverride(t *testing.T) {
	p := staticParams()
	p.Faults = lossyLinks()
	p.Faults.Links[0].DropRate = 0.3
	p.Faults.Retry = &serial.RetryPolicy{MaxAttempts: 1}
	out := mustSimulate(t, Spec{Stages: bestStages(t, p), Label: "no-retry", Params: p, Frames: 100}, Sinks{})
	var retries, giveUps int
	for _, ps := range out.PortStats {
		retries += ps.TxRetries
		giveUps += ps.TxGiveUps
	}
	if retries != 0 {
		t.Fatalf("%d retries with retransmission disabled", retries)
	}
	if giveUps == 0 {
		t.Fatal("no give-ups under 30% drop with a single-attempt budget")
	}
}

// TestFaultCrashMigration: a permanent node2 crash mid-run is absorbed
// by the §5.4 migration path — node1 takes over the remaining stages and
// results keep flowing.
func TestFaultCrashMigration(t *testing.T) {
	p := staticParams()
	p.Faults = &fault.Scenario{
		Seed:    3,
		Crashes: []fault.Crash{{Node: "node2", AtS: 100}},
	}
	out := mustSimulate(t, Spec{Stages: bestStages(t, p), Label: "crash", Ack: true, Params: p, Frames: 150}, Sinks{})
	if out.FaultStats.Crashes != 1 || out.FaultStats.Restarts != 0 {
		t.Fatalf("fault stats %+v", out.FaultStats)
	}
	var n1, n2 NodeStat
	for _, ns := range out.NodeStats {
		switch ns.Name {
		case "node1":
			n1 = ns
		case "node2":
			n2 = ns
		}
	}
	if n2.Crashes != 1 {
		t.Fatalf("node2 stats %+v, want 1 crash", n2)
	}
	if n1.Migrations == 0 {
		t.Fatal("node1 never migrated after node2's crash")
	}
	if n1.ResultsSent == 0 {
		t.Fatal("no results from node1 after taking over")
	}
	// The pipeline survives: nearly every frame still lands (at most a
	// couple are lost in flight at the crash instant).
	if out.Frames < 145 {
		t.Fatalf("delivered %d/150 frames across the crash", out.Frames)
	}
}

// TestFaultCrashRestart: a transient outage ends with the node back up.
func TestFaultCrashRestart(t *testing.T) {
	p := staticParams()
	p.Faults = &fault.Scenario{
		Seed:    3,
		Crashes: []fault.Crash{{Node: "node2", AtS: 60, RestartAfterS: 10}},
	}
	out := mustSimulate(t, Spec{Stages: bestStages(t, p), Label: "blip", Ack: true, Params: p, Frames: 100}, Sinks{})
	if out.FaultStats.Crashes != 1 || out.FaultStats.Restarts != 1 {
		t.Fatalf("fault stats %+v", out.FaultStats)
	}
	for _, ns := range out.NodeStats {
		if ns.Name == "node2" && (ns.Crashes != 1 || ns.Restarts != 1) {
			t.Fatalf("node2 stats %+v", ns)
		}
	}
	if out.Frames == 0 {
		t.Fatal("no frames delivered")
	}
}

// TestFaultBatteryVariance: scaling one node's capacity shifts its
// death without touching the other pack.
func TestFaultBatteryVariance(t *testing.T) {
	p := DefaultParams()
	base := mustSimulate(t, Spec{ID: Exp2, Params: p}, Sinks{})
	p.Faults = &fault.Scenario{
		Batteries: []fault.BatteryScale{{Node: "node2", CapacityScale: 0.5}},
	}
	scaled := mustSimulate(t, Spec{ID: Exp2, Params: p}, Sinks{})
	died := func(o Outcome, name string) float64 {
		for _, ns := range o.NodeStats {
			if ns.Name == name {
				return ns.DiedAtH
			}
		}
		t.Fatalf("%s missing from %v", name, o.NodeStats)
		return 0
	}
	if d0, d1 := died(base, "node2"), died(scaled, "node2"); d1 >= d0 {
		t.Fatalf("node2 at half capacity died at %.2f h, full pack %.2f h", d1, d0)
	}
	if scaled.BatteryLifeH >= base.BatteryLifeH {
		t.Fatalf("system life %v with a weak pack, %v nominal", scaled.BatteryLifeH, base.BatteryLifeH)
	}
}

// TestExp2DSmoke pins the fault experiment's basic shape: faults are
// injected, retransmissions recover them, and the pipeline still
// delivers the bulk of its frames before exhaustion.
func TestExp2DSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full run")
	}
	out := mustSimulate(t, Spec{ID: Exp2D, Params: DefaultParams()}, Sinks{})
	if out.FaultStats.Drops == 0 || out.FaultStats.Garbles == 0 {
		t.Fatalf("2D injected no faults: %+v", out.FaultStats)
	}
	if out.Frames < 15000 {
		t.Fatalf("2D delivered only %d frames", out.Frames)
	}
	if out.BatteryLifeH < 10 {
		t.Fatalf("2D battery life %.2f h", out.BatteryLifeH)
	}
	var retries int
	for _, ps := range out.PortStats {
		retries += ps.TxRetries
	}
	if retries == 0 {
		t.Fatal("no retransmissions recorded in 2D")
	}
}
