package node

import (
	"fmt"
	"testing"

	"dvsim/internal/atr"
	"dvsim/internal/battery"
	"dvsim/internal/cpu"
	"dvsim/internal/host"
	"dvsim/internal/serial"
	"dvsim/internal/sim"
)

// rig assembles a small pipeline for behavioral tests: N nodes between
// a host that paces frames into the pipeline and collects its results.
// Batteries are generous unless capMAh says otherwise.
type rig struct {
	k     *sim.Kernel
	net   *serial.Network
	nodes []*Node
	host  *host.Host
	got   []host.Result
	// lastResultAt is the sink-side arrival time of the latest result.
	lastResultAt sim.Time
}

func defaultRoles(n int) []Role {
	if n == 1 {
		return []Role{{Index: 1, Span: atr.FullSpan, Compute: cpu.MaxPoint, Comm: cpu.MaxPoint}}
	}
	first, second := atr.SplitAfter(atr.BlockDetect)
	return []Role{
		{Index: 1, Span: first, Compute: cpu.MinPoint, Comm: cpu.MinPoint},
		{Index: 2, Span: second, Compute: cpu.PointAt(103.2), Comm: cpu.PointAt(103.2)},
	}
}

func newRig(t *testing.T, cfg Config, roles []Role, capMAh ...float64) *rig {
	t.Helper()
	return newRigRaw(cfg, roles, capMAh...)
}

// newRigRaw is newRig without a testing.T, for property predicates.
func newRigRaw(cfg Config, roles []Role, capMAh ...float64) *rig {
	k := sim.NewKernel()
	k.SetEventLimit(5_000_000)
	net := serial.NewNetwork(k, serial.DefaultLink())
	r := &rig{k: k, net: net, host: host.New(k, net)}
	for i := range roles {
		cap := 1e6 // effectively infinite
		if i < len(capMAh) {
			cap = capMAh[i]
		}
		c := cpu.New(nil, roles[i].Comm)
		pw := NewPower(k, c, battery.NewIdeal(cap))
		r.nodes = append(r.nodes, New(k, net, pw, cfg, fmt.Sprintf("node%d", i+1), roles, i))
	}
	for _, n := range r.nodes {
		n.Wire(r.nodes, r.host.SinkPort())
	}
	return r
}

// start launches the nodes and a host that sends the given number of
// frames, one every d seconds, to the node holding role 1 under the
// rotation period, and records every result.
func (r *rig) start(frames int, d float64, rotation int) {
	for _, n := range r.nodes {
		n.Start()
		r.host.Targets = append(r.host.Targets, n.Port())
	}
	h := r.host
	h.D, h.FrameKB, h.RotationPeriod, h.MaxFrames = d, 10.1, rotation, frames
	h.OnResult = func(res host.Result) {
		r.got = append(r.got, res)
		r.lastResultAt = res.At
	}
	h.Start()
}

func TestSingleNodeProcessesFramesAtPace(t *testing.T) {
	cfg := Config{Prof: atr.Default(), D: 2.3}
	r := newRig(t, cfg, defaultRoles(1))
	r.start(5, 2.3, 0)
	r.k.Run()
	if len(r.got) != 5 {
		t.Fatalf("sink got %d results, want 5", len(r.got))
	}
	for i, m := range r.got {
		if m.Frame != i {
			t.Fatalf("result %d is frame %d", i, m.Frame)
		}
	}
	// One result per D after the first completes at D.
	// Frame 0: recv 1.1 + proc 1.1 + send 0.1 = 2.3.
	if r.nodes[0].FramesProcessed != 5 || r.nodes[0].ResultsSent != 5 {
		t.Fatalf("node stats: proc %d results %d", r.nodes[0].FramesProcessed, r.nodes[0].ResultsSent)
	}
}

func TestTwoNodePipelineDeliversInOrder(t *testing.T) {
	cfg := Config{Prof: atr.Default(), D: 2.3}
	r := newRig(t, cfg, defaultRoles(2))
	r.start(8, 2.3, 0)
	r.k.Run()
	if len(r.got) != 8 {
		t.Fatalf("sink got %d results, want 8", len(r.got))
	}
	for i, m := range r.got {
		if m.Frame != i {
			t.Fatalf("result %d is frame %d", i, m.Frame)
		}
		if m.From != "node2" {
			t.Fatalf("result from %s, want node2", m.From)
		}
	}
	if r.nodes[0].ResultsSent != 0 || r.nodes[1].ResultsSent != 8 {
		t.Fatalf("results split %d/%d", r.nodes[0].ResultsSent, r.nodes[1].ResultsSent)
	}
}

func TestPipelineThroughputMatchesFrameDelay(t *testing.T) {
	cfg := Config{Prof: atr.Default(), D: 2.3}
	r := newRig(t, cfg, defaultRoles(2))
	const frames = 10
	r.start(frames, 2.3, 0)
	r.k.Run()
	// Pipeline startup is (N-1)·D; afterwards one result per ≈D. The
	// scheme-1 node2 stage needs 2.33 s, so allow the documented slight
	// overrun.
	last := float64(r.lastResultAt)
	perFrame := last / frames
	if perFrame < 2.2 || perFrame > 2.6 {
		t.Fatalf("per-frame time %v, want ≈2.3–2.4", perFrame)
	}
}

func TestNoIONodeComputesBackToBack(t *testing.T) {
	cfg := Config{Prof: atr.Default(), D: 2.3, NoIO: true}
	roles := defaultRoles(1)
	// 10 mAh at ≈130 mA: dies after ≈276.8 s ⇒ ≈251 frames of 1.1 s.
	r := newRig(t, cfg, roles, 10.0)
	r.nodes[0].Start()
	r.k.Run()
	n := r.nodes[0]
	if !n.Dead() {
		t.Fatal("node should have died")
	}
	if n.FramesProcessed < 240 || n.FramesProcessed > 260 {
		t.Fatalf("frames %d, want ≈251", n.FramesProcessed)
	}
	if n.Power().ModeSeconds(cpu.Idle) != 0 || n.Power().ModeSeconds(cpu.Comm) != 0 {
		t.Fatal("no-I/O node spent time outside compute")
	}
}

func TestDVSDuringIOUsesCommPoint(t *testing.T) {
	roles := []Role{{Index: 1, Span: atr.FullSpan, Compute: cpu.MaxPoint, Comm: cpu.MinPoint}}
	cfg := Config{Prof: atr.Default(), D: 2.3}
	r := newRig(t, cfg, roles)
	r.start(3, 2.3, 0)
	r.k.Run()
	pw := r.nodes[0].Power()
	// Communication charge must be at the 59 MHz comm current.
	commI := pw.CPU().Model().CurrentMA(cpu.Comm, cpu.MinPoint)
	commS := pw.ModeSeconds(cpu.Comm)
	wantMAh := commI * commS / 3600
	if got := pw.ModeMAh(cpu.Comm); got < wantMAh*0.999 || got > wantMAh*1.001 {
		t.Fatalf("comm charge %v mAh over %v s, want %v (at 59 MHz)", got, commS, wantMAh)
	}
	// Comm time per frame is 1.2 s regardless of clock (§6.3).
	if perFrame := commS / 3; perFrame < 1.19 || perFrame > 1.21 {
		t.Fatalf("comm time per frame %v, want 1.2", perFrame)
	}
}

func TestRotationBalancesWork(t *testing.T) {
	cfg := Config{Prof: atr.Default(), D: 2.3, RotationPeriod: 4}
	r := newRig(t, cfg, defaultRoles(2))
	const frames = 24
	r.start(frames, 2.3, 4)
	r.k.Run()
	if len(r.got) != frames {
		t.Fatalf("sink got %d results, want %d", len(r.got), frames)
	}
	// Every frame exactly once.
	seen := map[int]int{}
	for _, m := range r.got {
		seen[m.Frame]++
	}
	for f := 0; f < frames; f++ {
		if seen[f] != 1 {
			t.Fatalf("frame %d delivered %d times", f, seen[f])
		}
	}
	// Both nodes rotate and both send results.
	n1, n2 := r.nodes[0], r.nodes[1]
	if n1.Rotations == 0 || n2.Rotations == 0 {
		t.Fatalf("rotations %d/%d", n1.Rotations, n2.Rotations)
	}
	if n1.ResultsSent == 0 || n2.ResultsSent == 0 {
		t.Fatalf("results %d/%d — rotation should share the last stage", n1.ResultsSent, n2.ResultsSent)
	}
	// Work is balanced to within one rotation block.
	if diff := n1.FramesProcessed - n2.FramesProcessed; diff < -5 || diff > 5 {
		t.Fatalf("frames %d vs %d — rotation should balance", n1.FramesProcessed, n2.FramesProcessed)
	}
}

func TestRotationPreservesThroughput(t *testing.T) {
	// §5.5: "There is no performance loss". Compare total time for the
	// same frame count with and without rotation, using role points that
	// fit comfortably within D.
	roles := []Role{
		{Index: 1, Span: atr.Span{First: atr.BlockDetect, Last: atr.BlockDetect}, Compute: cpu.MinPoint, Comm: cpu.MinPoint},
		{Index: 2, Span: atr.Span{First: atr.BlockFFT, Last: atr.BlockDistance}, Compute: cpu.PointAt(118), Comm: cpu.PointAt(118)},
	}
	const frames = 30
	run := func(rot int) float64 {
		cfg := Config{Prof: atr.Default(), D: 2.3, RotationPeriod: rot}
		r := newRig(t, cfg, roles)
		r.start(frames, 2.3, rot)
		r.k.Run()
		if len(r.got) != frames {
			t.Fatalf("rot=%d: got %d results", rot, len(r.got))
		}
		return float64(r.lastResultAt)
	}
	plain := run(0)
	rotated := run(5)
	if rotated > plain*1.02 {
		t.Fatalf("rotation cost throughput: %v vs %v", rotated, plain)
	}
}

func TestRecoveryMigrationOnDownstreamDeath(t *testing.T) {
	cfg := Config{Prof: atr.Default(), D: 2.3, Ack: true, AckTimeoutS: 0.5}
	// Node2 has a tiny battery and dies quickly; node1 must take over
	// and keep delivering results.
	r := newRig(t, cfg, defaultRoles(2), 1e6, 1.0)
	r.start(40, 2.3, 0)
	r.k.Run()
	n1, n2 := r.nodes[0], r.nodes[1]
	if !n2.Dead() {
		t.Fatal("node2 should have died")
	}
	if n1.Migrations != 1 {
		t.Fatalf("node1 migrations = %d, want 1", n1.Migrations)
	}
	if n1.ResultsSent == 0 {
		t.Fatal("survivor sent no results")
	}
	if len(r.got) < 35 {
		t.Fatalf("only %d of 40 results arrived after migration", len(r.got))
	}
	// Post-migration the survivor runs the whole algorithm.
	if n1.Role().Span != atr.FullSpan {
		t.Fatalf("survivor span %v, want full", n1.Role().Span)
	}
	if n1.Role().Compute != cpu.MaxPoint {
		t.Fatalf("survivor compute %v, want max (baseline configuration)", n1.Role().Compute)
	}
}

func TestRecoveryMigrationOnUpstreamDeath(t *testing.T) {
	cfg := Config{Prof: atr.Default(), D: 2.3, Ack: true, AckTimeoutS: 0.5}
	// Node1 dies; node2 must notice the missing stream and take over
	// receiving frames from the host.
	r := newRig(t, cfg, defaultRoles(2), 0.35, 1e6)
	r.start(40, 2.3, 0)
	// The source must redirect to node2 after node1 dies; the plain rig
	// source always targets node1, so wrap: direct frames at whichever
	// node is alive. Rebuild source behavior via a custom pump.
	r.k.Run()
	n1, n2 := r.nodes[0], r.nodes[1]
	if !n1.Dead() {
		t.Fatal("node1 should have died")
	}
	if n2.Migrations != 1 {
		t.Fatalf("node2 migrations = %d, want 1", n2.Migrations)
	}
	if n2.Role().Span != atr.FullSpan || n2.Role().Index != 1 {
		t.Fatalf("survivor role %+v", n2.Role())
	}
}

func TestAckProtocolAddsTransactions(t *testing.T) {
	plain := Config{Prof: atr.Default(), D: 2.3}
	acked := Config{Prof: atr.Default(), D: 2.3, Ack: true, AckTimeoutS: 0.5}
	count := func(cfg Config) int {
		r := newRig(t, cfg, defaultRoles(2))
		r.start(6, 2.3, 0)
		r.k.Run()
		n := 0
		for _, pt := range r.net.Ports() {
			n += pt.Stats().TxTransfers
		}
		return n
	}
	p, a := count(plain), count(acked)
	// One extra ack per internode transfer: 6 more transactions.
	if a != p+6 {
		t.Fatalf("transfers %d (plain) vs %d (acked), want +6", p, a)
	}
}

func TestNodeAccessors(t *testing.T) {
	cfg := Config{Prof: atr.Default(), D: 2.3}
	r := newRig(t, cfg, defaultRoles(2))
	n := r.nodes[0]
	if n.Name != "node1" || n.Port() == nil || n.Power() == nil {
		t.Fatal("accessors broken")
	}
	n.Interrupt() // no frame loop before Start: a no-op
	if n.Dead() {
		t.Fatal("fresh node dead")
	}
	if n.Role().Index != 1 {
		t.Fatalf("initial role %d", n.Role().Index)
	}
}

// TestGraphFanInGathersEveryParent: two self-paced sources feed one
// aggregating sink. Each round the sink gathers one message per parent
// and delivers that frame to the host; the bounded sources stop pacing
// after their last frame.
func TestGraphFanInGathersEveryParent(t *testing.T) {
	k := sim.NewKernel()
	net := serial.NewNetwork(k, serial.DefaultLink())
	h := host.New(k, net)
	sink := h.SinkPort()
	const rounds = 5
	role := Role{Index: 1, Compute: cpu.MaxPoint, Comm: cpu.MaxPoint, RefS: 0.2, OutKB: 1,
		Rounds: rounds, FanInAll: true}
	var nodes []*Node
	for _, name := range []string{"a", "b", "agg"} {
		pw := NewPower(k, cpu.New(nil, cpu.MaxPoint), battery.NewIdeal(1e6))
		nodes = append(nodes, New(k, net, pw, Config{D: 2.3}, name, []Role{role}, 0))
	}
	a, b, agg := nodes[0], nodes[1], nodes[2]
	a.WireGraph(0, []*serial.Port{agg.Port()}, nil)
	b.WireGraph(0, []*serial.Port{agg.Port()}, nil)
	agg.WireGraph(2, nil, sink)
	for _, n := range nodes {
		n.Start()
	}
	// A host stopped before it starts only collects.
	var got []host.Result
	h.OnResult = func(res host.Result) { got = append(got, res) }
	h.Stop()
	h.Start()
	net.OnTransfer = func(ev serial.TransferEvent) {
		if ev.To == sink.Name() && ev.Kind != serial.KindResult {
			t.Errorf("a %v message reached the host sink", ev.Kind)
		}
	}
	k.RunUntil(60)
	if len(got) != rounds {
		t.Fatalf("host got %d results, want %d", len(got), rounds)
	}
	for i, m := range got {
		if m.Frame != i || m.From != "agg" {
			t.Fatalf("result %d: %+v", i, m)
		}
	}
	for _, n := range nodes {
		if n.FramesProcessed != rounds || n.Pacing() {
			t.Fatalf("%s: %d frames, pacing %v", n.Name, n.FramesProcessed, n.Pacing())
		}
	}
	if a.ResultsSent != 0 || agg.ResultsSent != rounds {
		t.Fatalf("results sent: source %d, sink %d", a.ResultsSent, agg.ResultsSent)
	}
}
