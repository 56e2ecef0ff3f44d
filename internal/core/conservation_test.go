package core

import (
	"math"
	"testing"

	"dvsim/internal/topology"
)

// TestChargeAndTimeConservation: on every engine — the no-I/O node, the
// pipeline under each paper experiment and the graph fleet — each
// node's per-mode charges sum to the charge its battery delivered, and
// a dead node's per-mode seconds sum to its lifetime.
func TestChargeAndTimeConservation(t *testing.T) {
	p := DefaultParams()
	outs := mustSuite(t, AllExperiments, p, 0)
	fp := p
	fp.RotationPeriod = 0
	for _, g := range []*topology.Graph{
		topology.Tree(2, 2, topology.Config{}),
		topology.Mesh(6, 2, topology.Config{}),
		topology.Wide(2, 2, topology.Config{}),
	} {
		outs = append(outs, mustSimulate(t, Spec{Graph: g, Label: g.Kind, Params: fp}, Sinks{}))
	}
	const tol = 1e-9
	close := func(a, b float64) bool { return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b)) }
	for _, out := range outs {
		dead := 0
		for _, ns := range out.NodeStats {
			if perMode := ns.IdleMAh + ns.CommMAh + ns.ComputeMAh; !close(perMode, ns.DeliveredMAh) {
				t.Errorf("%s %s: per-mode %.12g mAh, delivered %.12g mAh", out.ID, ns.Name, perMode, ns.DeliveredMAh)
			}
			if ns.DiedAtH == 0 {
				continue
			}
			dead++
			if perMode, life := ns.IdleS+ns.CommS+ns.ComputeS, ns.DiedAtH*3600; !close(perMode, life) {
				t.Errorf("%s %s: per-mode %.12g s, lifetime %.12g s", out.ID, ns.Name, perMode, life)
			}
		}
		if dead == 0 {
			t.Errorf("%s: no node ran its battery down", out.ID)
		}
	}
}
