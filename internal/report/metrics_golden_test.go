package report

import (
	"testing"

	"dvsim/internal/core"
	"dvsim/internal/governor"
	"dvsim/internal/topology"
)

// TestMetricsGolden pins the metrics snapshot of the runs that only a
// library caller can make: a tree and a mesh fleet without rotation,
// and the pid-governed 3A pipeline. Every row — which instruments
// appear, their values and their order — must stay byte for byte.
func TestMetricsGolden(t *testing.T) {
	p := core.DefaultParams()
	pf := p
	pf.RotationPeriod = 0
	pg := p
	pg.Governor = governor.Spec{Name: "pid"}
	for _, c := range []struct {
		golden string
		spec   core.Spec
	}{
		{"metrics_tree", core.Spec{Graph: topology.Tree(2, 2), Label: "tree", Params: pf}},
		{"metrics_mesh", core.Spec{Graph: topology.Mesh(6, 2), Label: "mesh", Params: pf}},
		{"metrics_3A_pid", core.Spec{ID: core.Exp3A, Params: pg}},
	} {
		t.Run(c.golden, func(t *testing.T) {
			out := simulate(t, c.spec, core.Sinks{Metrics: true})
			checkGolden(t, c.golden, MetricsCSV(out.Metrics))
		})
	}
}
