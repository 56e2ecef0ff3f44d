package core

import (
	"dvsim/internal/host"
	"dvsim/internal/node"
	"dvsim/internal/serial"
)

// buildFleet materializes a non-chain topology graph (see
// internal/topology): sources pace themselves, interior vertices gather
// fan-in, and sink results land at the host, which plays the role of
// the paper's workstation but paces nothing. Graph construction order
// fixes same-instant event ordering, so the run is deterministic.
func (pl *plan) buildFleet() *rig {
	p, g := pl.p, pl.graph
	r := pl.newRig()
	cfg := node.Config{
		D:        p.FrameDelayS,
		Retry:    pl.armFaults(r),
		Metrics:  r.reg,
		Governor: p.Governor,
		OnGovern: pl.onGovern,
	}
	h := host.New(r.k, r.net)
	h.Stop() // graph sources pace themselves: the host only collects

	nodes := make([]*node.Node, len(g.Nodes))
	for i, ns := range g.Nodes {
		role := node.Role{
			Index:    1,
			Compute:  ns.Compute,
			Comm:     ns.Comm,
			Idle:     ns.Idle,
			RefS:     ns.RefS,
			OutKB:    ns.OutKB,
			BudgetS:  ns.BudgetFactor * p.FrameDelayS,
			Rounds:   pl.maxFrames,
			Stride:   ns.Stride,
			Phase:    ns.Phase,
			FanInAll: ns.FanInAll,
		}
		nodes[i] = pl.newNode(r, cfg, ns.Name, []node.Role{role}, 0)
	}
	for i, ns := range g.Nodes {
		children := make([]*serial.Port, len(ns.Children))
		for j, ci := range ns.Children {
			children[j] = nodes[ci].Port()
		}
		var sink *serial.Port
		if ns.Sink {
			sink = h.SinkPort()
		}
		nodes[i].WireGraph(len(ns.Parents), children, sink)
	}
	r.arm(h, nodes)
	return r
}
