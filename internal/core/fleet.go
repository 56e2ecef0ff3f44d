package core

import (
	"dvsim/internal/battery"
	"dvsim/internal/cpu"
	"dvsim/internal/fault"
	"dvsim/internal/host"
	"dvsim/internal/node"
	"dvsim/internal/serial"
	"dvsim/internal/sim"
)

// buildFleet materializes a non-chain topology graph (see
// internal/topology) on the worker engine: sources pace themselves,
// interior vertices gather fan-in, and sink results land at a host
// collector that plays the role of the paper's workstation. The stop
// conditions mirror the pipeline's: every source exhausted (bounded
// runs) or the fleet dead/stalled (unbounded runs). Graph construction
// order fixes same-instant event ordering, so the run is deterministic.
func (pl *plan) buildFleet() *rig {
	p, g := pl.p, pl.graph
	r := pl.newRig()
	k, net, reg := r.k, r.net, r.reg
	rp := pl.armFaults(r)

	sink := net.Port("host-sink")
	workers := make([]*node.Worker, len(g.Nodes))
	for i, ns := range g.Nodes {
		c := cpu.New(p.Power, ns.Comm)
		bat := p.Battery()
		battery.ScaleCapacity(bat, pl.faults.CapacityScale(ns.Name))
		pw := node.NewPower(k, c, bat)
		if pl.trace {
			pw.EnableTrace()
		}
		budget := p.FrameDelayS
		if ns.BudgetFactor > 0 {
			budget = ns.BudgetFactor * p.FrameDelayS
		}
		workers[i] = node.NewWorker(k, net, pw, node.WorkerConfig{
			Name:     ns.Name,
			D:        p.FrameDelayS,
			BudgetS:  budget,
			Source:   ns.Source(),
			Rounds:   pl.maxFrames,
			Stride:   ns.Stride,
			Phase:    ns.Phase,
			RefS:     ns.RefS,
			OutKB:    ns.OutKB,
			Compute:  ns.Compute,
			Comm:     ns.Comm,
			Idle:     ns.Idle,
			FanInAll: ns.FanInAll,
			Retry:    rp,
			Governor: p.Governor,
			OnGovern: pl.onGovern,
			Metrics:  reg,
		})
	}
	for i, ns := range g.Nodes {
		children := make([]*serial.Port, len(ns.Children))
		for j, ci := range ns.Children {
			children[j] = workers[ci].Port()
		}
		var sp *serial.Port
		if ns.Sink {
			sp = sink
		}
		workers[i].WireGraph(len(ns.Parents), children, sp)
	}
	if r.inj != nil {
		targets := make(map[string]fault.CrashTarget, len(workers))
		for _, w := range workers {
			targets[w.Name] = w
		}
		r.inj.Arm(k, targets)
	}
	r.workers = workers
	if reg != nil {
		for _, w := range workers {
			registerSamplers(reg, w.Name, w.Power(), w.Port(), DefaultSamplePeriodS)
		}
		registerKernelSamplers(reg, k, DefaultSamplePeriodS)
	}

	// The collector: the workstation's sink.
	k.Spawn("host-sink", func(pr *sim.Proc) {
		for {
			msg, err := sink.Recv(pr)
			if err != nil {
				return
			}
			r.result(host.Result{Frame: msg.Frame, At: k.Now(), From: msg.From, Payload: msg.Payload})
		}
	})

	// Stop conditions: everyone dead, or silence at the sink after a
	// death/outage or source exhaustion.
	stallWindow := sim.Time(50 * r.d)
	var watch func()
	watch = func() {
		allDead, anyDown, sourcesDone := true, false, true
		for _, w := range workers {
			if !w.Available() {
				anyDown = true
			}
			if !w.Dead() {
				allDead = false
			}
			if w.Source() && !w.Exhausted() {
				sourcesDone = false
			}
		}
		if allDead || ((anyDown || sourcesDone) && k.Now()-r.lastResult > stallWindow) {
			r.finish()
			return
		}
		k.After(sim.Duration(10*r.d), watch)
	}
	k.After(sim.Duration(10*r.d), watch)
	return r
}
