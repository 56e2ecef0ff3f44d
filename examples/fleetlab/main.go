// Fleetlab: the paper's techniques beyond the pipeline. Its §7 notes
// the approach "extends to more general distributed systems"; this
// example builds two such fleets with internal/topology — a 31-node
// binary aggregation tree and a 16-node sensor mesh — runs them through
// the same deterministic engine as the experiment suite, and tables the
// per-shape accounting. The mesh then re-runs under the default link
// fault scenario to show the fleet degrading gracefully instead of
// stalling.
package main

import (
	"context"
	"fmt"

	"dvsim/internal/core"
	"dvsim/internal/topology"
)

func row(out core.Outcome) {
	var mah float64
	for _, ns := range out.NodeStats {
		mah += ns.DeliveredMAh
	}
	fmt.Printf("%-18s %6d %8d %8d %10.2f %12.3f\n",
		out.Label, out.Nodes, out.Frames, out.FramesDropped, mah, out.EnergyPerFrameMAh())
}

// run simulates a fleet for 60 rounds.
func run(label string, p core.Params, g *topology.Graph) core.Outcome {
	out, err := core.Simulate(context.Background(),
		core.Spec{Graph: g, Label: label, Params: p, Frames: 60}, core.Sinks{})
	if err != nil {
		panic(err)
	}
	return out
}

func main() {
	p := core.DefaultParams()
	// Rotation is a ring protocol; these graphs are not rings.
	p.RotationPeriod = 0

	// A binary tree of depth 4: 16 leaf sensors source frames, interior
	// vertices gather both children and aggregate, the root delivers
	// one aggregate per round to the host.
	tree := topology.Tree(2, 4)

	// A sensor mesh: 12 sensors striped over 3 aggregators, all feeding
	// one collector — the fan-in shape of a fielded sensor deployment.
	mesh := topology.Mesh(12, 3)

	fmt.Printf("%-18s %6s %8s %8s %10s %12s\n",
		"fleet", "nodes", "frames", "dropped", "mAh", "mAh/frame")
	row(run("tree 2x4", p, tree))
	row(run("mesh 12x3", p, mesh))

	// The same mesh with the wire made hostile: the default scenario's
	// seeded 2% drop / 1% garble on every link.
	pf := p
	pf.Faults = core.DefaultFaultScenario()
	out := run("mesh 12x3 faults", pf, mesh)
	row(out)
	fmt.Printf("\nfaults injected into the mesh: %d drops, %d garbles\n",
		out.FaultStats.Drops, out.FaultStats.Garbles)
	fmt.Println("\nevery run above is byte-deterministic: the same graph, platform and")
	fmt.Println("scenario seed replay the same fleet event for event. The manifest")
	fmt.Println("layer (dvsim -manifest, see MANIFESTS.md) sweeps these shapes by the")
	fmt.Println("hundred from one declarative runfile.")
}
