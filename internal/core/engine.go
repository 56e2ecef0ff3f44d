package core

import (
	"fmt"

	"dvsim/internal/assert"
	"dvsim/internal/atr"
	"dvsim/internal/battery"
	"dvsim/internal/cpu"
	"dvsim/internal/fault"
	"dvsim/internal/governor"
	"dvsim/internal/host"
	"dvsim/internal/metrics"
	"dvsim/internal/node"
	"dvsim/internal/serial"
	"dvsim/internal/sim"
	"dvsim/internal/topology"
)

// plan is a Spec resolved onto one of the three rigs: the no-I/O single
// node of experiments 0A/0B, the host-paced pipeline (paper experiments,
// custom stages, chain graphs), or the self-paced graph fleet (every
// other topology). All three run node.Node.
type plan struct {
	id    ID
	label string
	p     Params

	noIO   bool               // 0A/0B: one node computing at `at`
	at     cpu.OperatingPoint // no-I/O operating point
	graph  *topology.Graph    // non-chain topology, self-paced
	stages []StageConfig      // pipeline stages, one node each

	ack       bool
	rotation  int
	native    *Native
	faults    *fault.Scenario
	maxFrames int
	// assertions is the engine the run's catalog compiles to, if any.
	assertions *assert.Engine

	// Observation, filled by Simulate from the Sinks: trace records
	// mode spans, instrument attaches a metrics registry, onGovern
	// observes every governor decision.
	trace      bool
	instrument bool
	onGovern   func(node string, ev governor.Event)
}

// build assembles the plan's rig with its stop conditions armed.
func (pl *plan) build() *rig {
	switch {
	case pl.noIO:
		return pl.buildNoIO()
	case pl.graph != nil:
		return pl.buildFleet()
	}
	return pl.buildPipeline()
}

// rig is one assembled simulation, whichever builder made it. Everything
// after construction — observers, the run, outcome extraction and
// teardown — is the same for all three.
type rig struct {
	k   *sim.Kernel
	net *serial.Network
	reg *metrics.Registry // nil unless instrumented
	inj *fault.Injector   // nil without a fault scenario
	d   float64           // frame budget D

	nodes []*node.Node
	host  *host.Host // the frame source and result sink; nil without I/O

	results    int
	lastResult sim.Time
	// watchEv re-arms the stop watch without allocating per tick.
	watchEv sim.Event
	// onResult is the caller's result observer, observe the recorder's.
	onResult func(frame int, payload any)
	observe  func(host.Result)
}

// result accounts one result reaching the host: it restarts the stall
// clock and feeds the observers.
func (r *rig) result(res host.Result) {
	r.results++
	r.lastResult = r.k.Now()
	if r.onResult != nil {
		r.onResult(res.Frame, res.Payload)
	}
	if r.observe != nil {
		r.observe(res)
	}
}

// newRig creates the kernel, registry and network shared by every engine.
func (pl *plan) newRig() *rig {
	k := sim.NewKernel()
	r := &rig{k: k, d: pl.p.FrameDelayS}
	if pl.instrument {
		r.reg = metrics.New(k)
	}
	r.net = serial.NewNetwork(k, pl.p.Link)
	r.net.SetMetrics(r.reg)
	return r
}

// newNode builds one node on its own battery: a CPU starting at the
// role's comm point, the platform pack scaled by the fault scenario's
// capacity variance before metering starts (so the death prediction sees
// the scaled pack), and a power meter that traces when the run records
// mode spans.
func (pl *plan) newNode(r *rig, cfg node.Config, name string, roles []node.Role, phys int) *node.Node {
	c := cpu.New(pl.p.Power, roles[phys].Comm)
	bat := pl.p.Battery()
	battery.ScaleCapacity(bat, pl.faults.CapacityScale(name))
	pw := node.NewPower(r.k, c, bat)
	if pl.trace {
		pw.EnableTrace()
	}
	return node.New(r.k, r.net, pw, cfg, name, roles, phys)
}

// arm completes a pipeline or fleet rig: its nodes become fault targets
// and sampled series, the host sink feeds the rig's results, and the
// stop watch starts.
func (r *rig) arm(h *host.Host, nodes []*node.Node) {
	r.host, r.nodes = h, nodes
	if r.inj != nil {
		targets := make(map[string]fault.CrashTarget, len(nodes))
		for _, n := range nodes {
			targets[n.Name] = n
		}
		r.inj.Arm(r.k, targets)
	}
	r.sample()
	h.OnResult = r.result
	r.watchEv.Bind(r.watch)
	r.k.Reschedule(&r.watchEv, r.k.Now()+sim.Time(10*r.d))
}

// watch is the stop condition, polled every 10·D: every battery dead,
// or a node down or the frame source finished followed by 50·D without
// a result (a stall with charge remaining, the failure mode of §6.4). A
// crash outage counts as down — a permanently crashed node never
// produces again — but not as dead: its battery still holds charge.
func (r *rig) watch() {
	allDead, anyDown, srcDone := true, false, r.host.Stopped()
	for _, n := range r.nodes {
		if !n.Available() {
			anyDown = true
		}
		if !n.Dead() {
			allDead = false
		}
		if n.Pacing() {
			srcDone = false
		}
	}
	if allDead || ((anyDown || srcDone) && r.k.Now()-r.lastResult > sim.Time(50*r.d)) {
		r.finish()
		return
	}
	r.k.Reschedule(&r.watchEv, r.k.Now()+sim.Time(10*r.d))
}

// armFaults installs the plan's fault scenario on the network and
// returns the retransmit policy in force.
func (pl *plan) armFaults(r *rig) serial.RetryPolicy {
	rp := pl.p.Retry
	if pl.faults != nil {
		// MustInjector: a scenario that reaches here was validated at
		// load time, so a failure is a programming error.
		r.inj = fault.MustInjector(*pl.faults)
		r.net.Fault = r.inj
		if rpo := pl.faults.Retry; rpo != nil {
			rp = *rpo
		}
	}
	return rp
}

// buildNoIO is experiments 0A/0B: one node computing frames from local
// storage until its battery dies. The node starts here.
func (pl *plan) buildNoIO() *rig {
	r := pl.newRig()
	k, reg := r.k, r.reg
	c := cpu.New(pl.p.Power, pl.at)
	c.SetMode(cpu.Compute)
	pw := node.NewPower(k, c, pl.p.Battery())
	if pl.trace {
		pw.EnableTrace()
	}
	cfg := node.Config{Prof: pl.p.Profile, D: pl.p.FrameDelayS, NoIO: true, Metrics: reg}
	roles := []node.Role{{Index: 1, Span: atr.FullSpan, Compute: pl.at, Comm: pl.at}}
	n := node.New(k, r.net, pw, cfg, "node1", roles, 0)
	r.nodes = []*node.Node{n}
	n.Wire(r.nodes, r.net.Port("unused-sink"))
	n.Start()
	r.sample()
	if reg != nil {
		// The lone battery's death ends the run; stop the samplers there
		// so they do not keep the event queue alive forever.
		prev := pw.OnDeath
		pw.OnDeath = func() {
			prev()
			reg.StopSamplers()
		}
	}
	return r
}

// buildPipeline assembles host + N nodes on the paper's ring: the host
// paces frames into role 1, and the last role's results return to it.
func (pl *plan) buildPipeline() *rig {
	p := pl.p
	r := pl.newRig()
	rp := pl.armFaults(r)
	h := host.New(r.k, r.net)
	h.D = p.FrameDelayS
	h.FrameKB = p.Profile.InputKB
	h.RotationPeriod = pl.rotation
	h.Metrics = r.reg
	h.Retry = rp

	cfg := node.Config{
		Prof:           p.Profile,
		D:              p.FrameDelayS,
		RotationPeriod: pl.rotation,
		Ack:            pl.ack,
		AckTimeoutS:    p.AckTimeoutS,
		Retry:          rp,
		Metrics:        r.reg,
		Governor:       p.Governor,
		OnGovern:       pl.onGovern,
	}
	h.MaxFrames = pl.maxFrames
	if pl.native != nil {
		nat := pl.native
		h.MakeFrame = func(int) any {
			frame, _ := nat.Scene.Frame(1)
			return frame
		}
		cfg.Exec = nat.Pipe.ApplySpan
	}
	roles := make([]node.Role, len(pl.stages))
	for i, s := range pl.stages {
		roles[i] = node.Role{Index: i + 1, Span: s.Span, Compute: s.Compute, Comm: s.Comm, Idle: s.Idle,
			RefS: s.RefS, OutKB: s.OutKB}
	}
	nodes := make([]*node.Node, len(pl.stages))
	for i := range pl.stages {
		nodes[i] = pl.newNode(r, cfg, fmt.Sprintf("node%d", i+1), roles, i)
	}
	for _, n := range nodes {
		n.Wire(nodes, h.SinkPort())
		h.Targets = append(h.Targets, n.Port())
		h.Alive = append(h.Alive, n.Available)
	}
	r.arm(h, nodes)
	return r
}

// start launches the nodes, then the host. (The no-I/O node starts at
// construction.)
func (r *rig) start() {
	if r.host == nil {
		return
	}
	for _, n := range r.nodes {
		n.Start()
	}
	r.host.Start()
}

// finish stops the source and samplers and interrupts nodes stranded
// with live batteries so the run can end; their remaining charge is
// reported.
func (r *rig) finish() {
	r.host.Stop()
	r.reg.StopSamplers()
	for _, n := range r.nodes {
		if !n.Dead() {
			r.k.At(r.k.Now(), n.Interrupt)
		}
	}
}

// traces returns every node's mode spans.
func (r *rig) traces() [][]node.ModeSpan {
	var out [][]node.ModeSpan
	for _, n := range r.nodes {
		out = append(out, n.Power().Trace().Slice())
	}
	return out
}

// outcome extracts the paper's metrics after the run.
func (r *rig) outcome(pl *plan) Outcome {
	out := Outcome{
		ID:           pl.id,
		Label:        pl.label,
		Frames:       r.results,
		BatteryLifeH: float64(r.results) * r.d / 3600,
		WallH:        float64(r.lastResult) / 3600,
		Events:       r.k.Fired(),
		FaultStats:   r.inj.Stats(),
		PortStats:    portStatsOf(r.net),
		Metrics:      r.reg.Snapshot(),
		Nodes:        len(r.nodes),
	}
	if g := pl.p.Governor; g.Enabled() && !pl.noIO {
		out.Governor = g.String()
	}
	if r.host != nil {
		out.FramesDropped = r.host.FramesDropped
	}
	if pl.noIO {
		// Without I/O the workload is the frames computed and the
		// lifetime the actual run time.
		out.Frames = r.nodes[0].FramesProcessed
		out.WallH = float64(r.k.Now()) / 3600
		out.BatteryLifeH = out.WallH
	}
	for _, n := range r.nodes {
		out.NodeStats = append(out.NodeStats, statOf(n))
	}
	return out
}

// sample registers an instrumented rig's sim-time series: each node's
// battery dynamics and inbound backlog, then the event-queue depth and
// cumulative events fired (the events-processed rate is its discrete
// derivative).
func (r *rig) sample() {
	reg, k := r.reg, r.k
	if reg == nil {
		return
	}
	period := sim.Duration(DefaultSamplePeriodS)
	for _, n := range r.nodes {
		pw, port := n.Power(), n.Port()
		reg.Sample("battery_soc", n.Name, period, func() float64 {
			return pw.Battery().StateOfCharge()
		})
		reg.Sample("battery_available", n.Name, period, func() float64 {
			return battery.Available(pw.Battery())
		})
		reg.Sample("port_pending", n.Name, period, func() float64 {
			return float64(port.Pending())
		})
	}
	reg.Sample("sim_queue_depth", "", period, func() float64 {
		return float64(k.QueueLen())
	})
	reg.Sample("sim_events_fired", "", period, func() float64 {
		return float64(k.Fired())
	})
}

// portStatsOf exports the network's per-port accounting.
func portStatsOf(net *serial.Network) []PortStat {
	ports := net.Ports()
	out := make([]PortStat, 0, len(ports))
	for _, pt := range ports {
		out = append(out, PortStat{Port: pt.Name(), PortStats: pt.Stats()})
	}
	return out
}

// statOf is one node's accounting: its battery and per-mode time and
// charge, and its frame, fault and governor counters.
func statOf(n *node.Node) NodeStat {
	pw := n.Power()
	stat := NodeStat{
		Name:            n.Name,
		DiedAtH:         float64(n.DeadAt) / 3600,
		DeliveredMAh:    pw.Battery().DeliveredMAh(),
		FinalSoC:        pw.Battery().StateOfCharge(),
		IdleS:           pw.ModeSeconds(cpu.Idle),
		CommS:           pw.ModeSeconds(cpu.Comm),
		ComputeS:        pw.ModeSeconds(cpu.Compute),
		IdleMAh:         pw.ModeMAh(cpu.Idle),
		CommMAh:         pw.ModeMAh(cpu.Comm),
		ComputeMAh:      pw.ModeMAh(cpu.Compute),
		FramesProcessed: n.FramesProcessed,
		ResultsSent:     n.ResultsSent,
		Rotations:       n.Rotations,
		Migrations:      n.Migrations,
		Crashes:         n.Crashes,
		Restarts:        n.Restarts,
		FramesAbandoned: n.FramesAbandoned,
		GovDecisions:    n.GovernorDecisions,
		GovSwitches:     n.GovernorSwitches,
		DeadlineMisses:  n.DeadlineMisses,
	}
	if n.GovernorDecisions > 0 {
		stat.GovMeanMHz = n.GovernorFreqSumMHz / float64(n.GovernorDecisions)
	}
	return stat
}
