package core

import (
	"fmt"

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

// plan is a Spec resolved onto one of the three engines: the no-I/O
// single node of experiments 0A/0B, the host-paced pipeline (paper
// experiments, custom stages, chain graphs), or the graph worker fleet
// (every other topology).
type plan struct {
	id    ID
	label string
	p     Params

	noIO   bool               // 0A/0B: one node computing at `at`
	at     cpu.OperatingPoint // no-I/O operating point
	graph  *topology.Graph    // non-chain topology on the worker engine
	stages []StageConfig      // pipeline stages, one node each

	ack       bool
	rotation  int
	native    *Native
	faults    *fault.Scenario
	maxFrames int

	// Observation, filled by Simulate from the Sinks: trace records
	// mode spans, instrument attaches a metrics registry, onGovern
	// observes every governor decision.
	trace      bool
	instrument bool
	onGovern   func(node string, ev governor.Event)
}

// nodes is the number of simulated nodes.
func (pl *plan) nodes() int {
	switch {
	case pl.noIO:
		return 1
	case pl.graph != nil:
		return len(pl.graph.Nodes)
	}
	return len(pl.stages)
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

// rig is one assembled simulation, whichever engine built it. Everything
// after construction — observers, the run, outcome extraction and
// teardown — is engine-independent.
type rig struct {
	k   *sim.Kernel
	net *serial.Network
	reg *metrics.Registry // nil unless instrumented
	inj *fault.Injector   // nil without a fault scenario
	d   float64           // frame budget D

	nodes   []*node.Node   // pipeline and no-I/O engines
	host    *host.Host     // pipeline engine
	workers []*node.Worker // graph engine

	results    int
	lastResult sim.Time
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
	n := node.New(k, r.net, pw, cfg, roles, 0)
	r.nodes = []*node.Node{n}
	n.Wire(r.nodes, r.net.Port("unused-sink"))
	n.Start()
	if reg != nil {
		registerSamplers(reg, n.Name, pw, n.Port(), DefaultSamplePeriodS)
		registerKernelSamplers(reg, k, DefaultSamplePeriodS)
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

// buildPipeline assembles host + N nodes with the experiment's stop
// conditions armed: every battery dead, or a death followed by a long
// silence at the sink (the pipeline stalled with charge remaining, the
// failure mode of §6.4).
func (pl *plan) buildPipeline() *rig {
	p := pl.p
	r := pl.newRig()
	k, net, reg := r.k, r.net, r.reg
	rp := pl.armFaults(r)
	h := host.New(k, net)
	h.D = p.FrameDelayS
	h.FrameKB = p.Profile.InputKB
	h.RotationPeriod = pl.rotation
	h.Metrics = reg
	h.Retry = rp
	r.host = h

	cfg := node.Config{
		Prof:           p.Profile,
		D:              p.FrameDelayS,
		RotationPeriod: pl.rotation,
		Ack:            pl.ack,
		AckTimeoutS:    p.AckTimeoutS,
		Retry:          rp,
		Metrics:        reg,
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
		c := cpu.New(p.Power, roles[i].Comm)
		bat := p.Battery()
		// Per-node capacity variance is applied before metering starts,
		// so the death prediction sees the scaled pack.
		battery.ScaleCapacity(bat, pl.faults.CapacityScale(fmt.Sprintf("node%d", i+1)))
		pw := node.NewPower(k, c, bat)
		if pl.trace {
			pw.EnableTrace()
		}
		nodes[i] = node.New(k, net, pw, cfg, roles, i)
	}
	for _, n := range nodes {
		n.Wire(nodes, h.SinkPort())
	}
	for _, n := range nodes {
		h.Targets = append(h.Targets, n.Port())
		h.Alive = append(h.Alive, n.Available)
	}
	if r.inj != nil {
		targets := make(map[string]fault.CrashTarget, len(nodes))
		for _, n := range nodes {
			targets[n.Name] = n
		}
		r.inj.Arm(k, targets)
	}
	r.nodes = nodes
	if reg != nil {
		for _, n := range nodes {
			registerSamplers(reg, n.Name, n.Power(), n.Port(), DefaultSamplePeriodS)
		}
		registerKernelSamplers(reg, k, DefaultSamplePeriodS)
	}
	h.OnResult = r.result
	stallWindow := sim.Time(50 * r.d)
	// The watchdog re-arms through one reusable Event (Bind+Reschedule)
	// so a long run costs no allocation per tick.
	var watchEv sim.Event
	watch := func() {
		allDead := true
		anyDead := false
		for _, n := range nodes {
			// A crash outage counts toward stall detection (a
			// permanently crashed node never produces again) but not
			// toward allDead: its battery still holds charge.
			if !n.Available() {
				anyDead = true
			}
			if !n.Dead() {
				allDead = false
			}
		}
		if allDead || ((anyDead || h.Stopped()) && k.Now()-r.lastResult > stallWindow) {
			r.finish()
			return
		}
		k.Reschedule(&watchEv, k.Now()+sim.Time(10*r.d))
	}
	watchEv.Bind(watch)
	k.Reschedule(&watchEv, k.Now()+sim.Time(10*r.d))
	return r
}

// start launches the pipeline's nodes and host, or the fleet's workers.
// (The no-I/O node starts at construction.)
func (r *rig) start() {
	if r.host != nil {
		for _, n := range r.nodes {
			n.Start()
		}
		r.host.Start()
	}
	for _, w := range r.workers {
		w.Start()
	}
}

// finish stops the source and samplers and interrupts nodes stranded
// with live batteries so the run can end; their remaining charge is
// reported.
func (r *rig) finish() {
	if r.host != nil {
		r.host.Stop()
	}
	r.reg.StopSamplers()
	interrupt := func(pr *sim.Proc) {
		if pr != nil && !pr.Done() {
			pr.Interrupt("experiment ended")
		}
	}
	for _, n := range r.nodes {
		if !n.Dead() {
			r.k.At(r.k.Now(), func() { interrupt(n.Proc()) })
		}
	}
	for _, w := range r.workers {
		if !w.Dead() {
			r.k.At(r.k.Now(), func() { interrupt(w.Proc()) })
		}
	}
}

// release tears the rig down and returns its recyclable simulation
// state — parked processes, rendezvous offers, frame-job carriers — to
// the process-wide pools, so the next run warm-starts instead of
// re-allocating its working set. Call it exactly once, after the
// outcome, records and traces have been extracted.
func (r *rig) release() {
	r.k.Shutdown()
	if r.host == nil && r.workers == nil {
		return // the no-I/O node never transfers, so it pools nothing
	}
	r.net.Release()
	if r.host != nil {
		r.host.Release()
	}
}

// traces finishes every node's metering and returns its mode spans.
func (r *rig) traces() [][]node.ModeSpan {
	var out [][]node.ModeSpan
	for _, n := range r.nodes {
		n.Power().Finish()
		out = append(out, n.Power().Trace())
	}
	for _, w := range r.workers {
		w.Power().Finish()
		out = append(out, w.Power().Trace())
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
		Nodes:        len(r.nodes) + len(r.workers),
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
	for _, w := range r.workers {
		out.NodeStats = append(out.NodeStats, workerStat(w))
	}
	return out
}

// registerSamplers tracks one node's battery dynamics and inbound
// backlog as sim-time series.
func registerSamplers(reg *metrics.Registry, name string, pw *node.Power, port *serial.Port, period float64) {
	reg.Sample("battery_soc", name, sim.Duration(period), func() float64 {
		return pw.Battery().StateOfCharge()
	})
	reg.Sample("battery_available", name, sim.Duration(period), func() float64 {
		return battery.Available(pw.Battery())
	})
	reg.Sample("port_pending", name, sim.Duration(period), func() float64 {
		return float64(port.Pending())
	})
}

// registerKernelSamplers tracks the event-queue depth and cumulative
// events fired (the events-processed rate is its discrete derivative).
func registerKernelSamplers(reg *metrics.Registry, k *sim.Kernel, period float64) {
	reg.Sample("sim_queue_depth", "", sim.Duration(period), func() float64 {
		return float64(k.QueueLen())
	})
	reg.Sample("sim_events_fired", "", sim.Duration(period), func() float64 {
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

func statOf(n *node.Node) NodeStat {
	pw := n.Power()
	stat := powerStat(n.Name, pw, n.DeadAt)
	stat.FramesProcessed = n.FramesProcessed
	stat.ResultsSent = n.ResultsSent
	stat.Rotations = n.Rotations
	stat.Migrations = n.Migrations
	stat.Crashes = n.Crashes
	stat.Restarts = n.Restarts
	stat.FramesAbandoned = n.FramesAbandoned
	stat.GovDecisions = n.GovernorDecisions
	stat.GovSwitches = n.GovernorSwitches
	stat.DeadlineMisses = n.DeadlineMisses
	if n.GovernorDecisions > 0 {
		stat.GovMeanMHz = n.GovernorFreqSumMHz / float64(n.GovernorDecisions)
	}
	return stat
}

// workerStat mirrors statOf for fleet workers; the ring-only fields
// (rotations, migrations) stay zero.
func workerStat(w *node.Worker) NodeStat {
	stat := powerStat(w.Name, w.Power(), w.DeadAt)
	stat.FramesProcessed = w.FramesProcessed
	stat.ResultsSent = w.ResultsSent
	stat.Crashes = w.Crashes
	stat.Restarts = w.Restarts
	stat.FramesAbandoned = w.FramesAbandoned
	stat.GovDecisions = w.GovernorDecisions
	stat.GovSwitches = w.GovernorSwitches
	stat.DeadlineMisses = w.DeadlineMisses
	if w.GovernorDecisions > 0 {
		stat.GovMeanMHz = w.GovernorFreqSumMHz / float64(w.GovernorDecisions)
	}
	return stat
}

// powerStat is the battery and per-mode accounting shared by both node
// kinds.
func powerStat(name string, pw *node.Power, deadAt sim.Time) NodeStat {
	return NodeStat{
		Name:         name,
		DiedAtH:      float64(deadAt) / 3600,
		DeliveredMAh: pw.Battery().DeliveredMAh(),
		FinalSoC:     pw.Battery().StateOfCharge(),
		IdleS:        pw.ModeSeconds(cpu.Idle),
		CommS:        pw.ModeSeconds(cpu.Comm),
		ComputeS:     pw.ModeSeconds(cpu.Compute),
		IdleMAh:      pw.ModeMAh(cpu.Idle),
		CommMAh:      pw.ModeMAh(cpu.Comm),
		ComputeMAh:   pw.ModeMAh(cpu.Compute),
	}
}
