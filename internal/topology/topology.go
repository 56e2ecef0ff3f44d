// Package topology builds declarative fleet graphs: the node-and-edge
// shape a distributed experiment runs over, independent of platform
// parameters. The paper's case study is a serial pipeline of 1–3 Itsy
// computers; this package generalizes that shape to serial pipelines of
// any length, wide pipelines with parallel stages, aggregation trees by
// branching factor and depth, and sensor meshes with fan-in collectors —
// while keeping each vertex described in the existing PlatformConfig
// vocabulary (reference seconds of work, operating points, payload
// kilobytes).
//
// A Graph is pure data: core.Simulate (Spec.Graph) materializes it into
// a running fleet of node.Node vertices (serial chains run host-paced on
// the paper's pipeline ring so the paper's experiments stay
// byte-identical; everything else is wired as a graph whose sources pace
// themselves), and internal/manifest sweeps it from declarative
// runfiles.
package topology

import (
	"fmt"

	"dvsim/internal/atr"
	"dvsim/internal/cpu"
)

// NodeSpec is one vertex of a fleet graph. Edges are directed along the
// data flow: Parents feed this node, Children receive its output.
type NodeSpec struct {
	// Name is the vertex identity: serial port name, metrics label, and
	// the handle fault scenarios target. Builders name vertices node1…N
	// in deterministic construction order.
	Name string
	// RefS is the per-frame reference compute time in seconds at the
	// maximum operating point (cpu.ScaledTime scales it down at slower
	// points). Must be positive.
	RefS float64
	// OutKB is the size of the product shipped along the outbound edge
	// (or to the host collector for sinks).
	OutKB float64
	// Compute/Comm/Idle are the vertex operating points; zero Idle
	// falls back to Comm.
	Compute cpu.OperatingPoint
	Comm    cpu.OperatingPoint
	Idle    cpu.OperatingPoint
	// Parents and Children are indices into Graph.Nodes. A vertex with
	// no parents is a source and paces itself; each output goes to
	// Children[frame mod len(Children)].
	Parents  []int
	Children []int
	// FanInAll makes the vertex gather one message from every parent
	// per round (aggregation) instead of proceeding on any one input.
	FanInAll bool
	// Sink marks a vertex whose output is a final result delivered to
	// the host collector. Sinks have no children.
	Sink bool
	// Stride and Phase select a source's frame sequence (Phase,
	// Phase+Stride, …). Zero Stride means every frame. Wide pipelines
	// use them to interleave parallel stage-1 vertices.
	Stride int
	Phase  int
	// BudgetFactor scales the vertex's governor frame budget in units
	// of the frame period D (0 = 1). A stage replicated width-ways sees
	// every width-th frame and gets width·D.
	BudgetFactor float64
}

// Source reports whether the vertex originates frames (no inbound
// edges).
func (ns NodeSpec) Source() bool { return len(ns.Parents) == 0 }

// Graph is a fleet topology: a DAG of NodeSpecs whose sinks deliver
// results to the host collector.
type Graph struct {
	// Kind names the builder shape ("serial", "wide", "tree", "mesh",
	// or anything for hand-built graphs); reporting metadata only.
	Kind string
	// Nodes in deterministic construction order; this order fixes
	// same-instant event ordering, so it is part of the determinism
	// contract.
	Nodes []NodeSpec
}

// Validate checks the structural invariants the runtime relies on:
// unique names, positive work, consistent directed edges, at least one
// source, at least one sink, sinks without children, and acyclicity.
func (g *Graph) Validate() error {
	if len(g.Nodes) == 0 {
		return fmt.Errorf("topology: graph has no nodes")
	}
	names := make(map[string]int, len(g.Nodes))
	for i, ns := range g.Nodes {
		if ns.Name == "" {
			return fmt.Errorf("topology: node %d has no name", i)
		}
		if j, dup := names[ns.Name]; dup {
			return fmt.Errorf("topology: duplicate node name %q (nodes %d and %d)", ns.Name, j, i)
		}
		names[ns.Name] = i
		if ns.RefS <= 0 {
			return fmt.Errorf("topology: node %q has non-positive RefS %g", ns.Name, ns.RefS)
		}
		if ns.OutKB < 0 {
			return fmt.Errorf("topology: node %q has negative OutKB %g", ns.Name, ns.OutKB)
		}
		if ns.Compute.FreqMHz <= 0 || ns.Comm.FreqMHz <= 0 {
			return fmt.Errorf("topology: node %q needs compute and comm operating points", ns.Name)
		}
		if ns.Sink && len(ns.Children) > 0 {
			return fmt.Errorf("topology: sink %q has children", ns.Name)
		}
		if !ns.Sink && len(ns.Children) == 0 {
			return fmt.Errorf("topology: node %q has no children and is not a sink", ns.Name)
		}
		if ns.Stride < 0 || ns.Phase < 0 {
			return fmt.Errorf("topology: node %q has negative stride/phase", ns.Name)
		}
	}
	// Edge consistency: i lists j as child iff j lists i as parent.
	type edge struct{ from, to int }
	fwd := make(map[edge]bool)
	for i, ns := range g.Nodes {
		for _, c := range ns.Children {
			if c < 0 || c >= len(g.Nodes) {
				return fmt.Errorf("topology: node %q child index %d out of range", ns.Name, c)
			}
			if c == i {
				return fmt.Errorf("topology: node %q has a self-edge", ns.Name)
			}
			fwd[edge{i, c}] = true
		}
	}
	back := 0
	for i, ns := range g.Nodes {
		for _, pa := range ns.Parents {
			if pa < 0 || pa >= len(g.Nodes) {
				return fmt.Errorf("topology: node %q parent index %d out of range", ns.Name, pa)
			}
			if !fwd[edge{pa, i}] {
				return fmt.Errorf("topology: node %q lists parent %q, but the reverse edge is missing",
					ns.Name, g.Nodes[pa].Name)
			}
			back++
		}
	}
	if back != len(fwd) {
		return fmt.Errorf("topology: %d child edges but %d parent edges — adjacency lists disagree", len(fwd), back)
	}
	sources, sinks := 0, 0
	for _, ns := range g.Nodes {
		if ns.Source() {
			sources++
		}
		if ns.Sink {
			sinks++
		}
	}
	if sources == 0 {
		return fmt.Errorf("topology: no source nodes (every node has parents — the graph is cyclic)")
	}
	if sinks == 0 {
		return fmt.Errorf("topology: no sink nodes")
	}
	// Acyclicity by Kahn's algorithm over the child edges.
	indeg := make([]int, len(g.Nodes))
	for _, ns := range g.Nodes {
		for _, c := range ns.Children {
			indeg[c]++
		}
	}
	queue := make([]int, 0, len(g.Nodes))
	for i := range g.Nodes {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		seen++
		for _, c := range g.Nodes[i].Children {
			if indeg[c]--; indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if seen != len(g.Nodes) {
		return fmt.Errorf("topology: graph has a cycle")
	}
	return nil
}

// Chain returns the node order of a simple path graph — single source,
// single sink, every vertex with at most one parent and one child, no
// striding — or nil when the graph is not that shape. Chains run on the
// pipeline ring (host-paced frames, rotation, the paper's recovery
// protocol); everything else runs self-paced as a graph.
func (g *Graph) Chain() []NodeSpec {
	start := -1
	for i, ns := range g.Nodes {
		if len(ns.Parents) > 1 || len(ns.Children) > 1 {
			return nil
		}
		if ns.Stride > 1 || ns.Phase != 0 {
			return nil
		}
		if ns.Source() {
			if start >= 0 {
				return nil
			}
			start = i
		}
	}
	if start < 0 {
		return nil
	}
	order := make([]NodeSpec, 0, len(g.Nodes))
	for i := start; ; {
		order = append(order, g.Nodes[i])
		if len(g.Nodes[i].Children) == 0 {
			break
		}
		i = g.Nodes[i].Children[0]
	}
	if len(order) != len(g.Nodes) {
		return nil
	}
	if !order[len(order)-1].Sink {
		return nil
	}
	return order
}

// The builders' per-vertex work model is the paper's frame workload,
// taken from the ATR profile, so a 1-node Serial graph is the
// experiment-1 workload shape. Every vertex computes and communicates at
// the maximum clock, like the paper's baseline.
var (
	profile = atr.Default()
	// frameRefS is the total reference compute time of one frame,
	// divided across a graph's stages or sensors: the full ATR
	// algorithm, ≈2.2 s at 206.4 MHz.
	frameRefS = profile.RefSeconds(atr.FullSpan)
	// payloadKB sizes intermediate transfers: the ATR post-FFT payload,
	// 7.5 KB, the dominant inter-stage transfer.
	payloadKB = profile.InterKB[atr.BlockFFT]
	// resultKB sizes the final result transfer: the ATR detection
	// report, 0.1 KB.
	resultKB = profile.OutKB(atr.FullSpan)
)

// aggRefS is the aggregation work per gathered input at tree and mesh
// interior vertices, in reference seconds.
const aggRefS = 0.05

// vertex returns a NodeSpec with the builders' operating points.
func vertex(name string, refS, outKB float64) NodeSpec {
	return NodeSpec{Name: name, RefS: refS, OutKB: outKB, Compute: cpu.MaxPoint, Comm: cpu.MaxPoint}
}

// Serial builds an n-stage serial pipeline: the paper's shape at any
// length. The frame's work is split evenly across stages; the final
// stage delivers the result. Serial graphs are chains, so they run on
// the pipeline ring with host pacing and (optionally) rotation.
func Serial(n int) *Graph {
	if n < 1 {
		panic(fmt.Sprintf("topology: serial pipeline needs at least 1 node, got %d", n))
	}
	g := &Graph{Kind: "serial", Nodes: make([]NodeSpec, n)}
	for i := 0; i < n; i++ {
		out := payloadKB
		if i == n-1 {
			out = resultKB
		}
		ns := vertex(fmt.Sprintf("node%d", i+1), frameRefS/float64(n), out)
		if i > 0 {
			ns.Parents = []int{i - 1}
		}
		if i < n-1 {
			ns.Children = []int{i + 1}
		} else {
			ns.Sink = true
		}
		g.Nodes[i] = ns
	}
	return g
}

// Wide builds a wide pipeline: stages serial stages, each replicated
// width ways. Frame f is handled by replica f mod width of every stage
// (sources interleave by stride/phase; interior vertices inherit the
// assignment from the round-robin fan-out), so each replica gets
// width·D of budget per frame — the throughput argument of §4.5 turned
// sideways. Every replica of the last stage is a sink.
func Wide(stages, width int) *Graph {
	if stages < 1 || width < 1 {
		panic(fmt.Sprintf("topology: wide pipeline needs stages ≥ 1 and width ≥ 1, got %d×%d", stages, width))
	}
	g := &Graph{Kind: "wide", Nodes: make([]NodeSpec, 0, stages*width)}
	idx := func(stage, rep int) int { return stage*width + rep }
	for s := 0; s < stages; s++ {
		for r := 0; r < width; r++ {
			ns := vertex(fmt.Sprintf("node%d", idx(s, r)+1), frameRefS/float64(stages), payloadKB)
			ns.BudgetFactor = float64(width)
			if s == 0 {
				ns.Stride, ns.Phase = width, r
			} else {
				ns.Parents = make([]int, width)
				for q := 0; q < width; q++ {
					ns.Parents[q] = idx(s-1, q)
				}
			}
			if s == stages-1 {
				ns.Sink = true
				ns.OutKB = resultKB
			} else {
				ns.Children = make([]int, width)
				for q := 0; q < width; q++ {
					ns.Children[q] = idx(s+1, q)
				}
			}
			g.Nodes = append(g.Nodes, ns)
		}
	}
	return g
}

// Tree builds a complete aggregation tree: bf^depth sensor leaves at
// the bottom, aggregators with FanInAll at every interior level, and
// the root as the sink. Vertices are numbered breadth-first from the
// root (node1), so leaves occupy the tail of the node list. Each leaf
// samples every frame period; each interior vertex gathers one message
// per child per round and forwards the aggregate.
func Tree(bf, depth int) *Graph {
	if bf < 2 || depth < 1 {
		panic(fmt.Sprintf("topology: tree needs branching factor ≥ 2 and depth ≥ 1, got bf=%d depth=%d", bf, depth))
	}
	// Total vertices of a complete bf-ary tree of the given depth.
	total := 0
	for l, w := 0, 1; l <= depth; l, w = l+1, w*bf {
		total += w
	}
	leaves := 1
	for l := 0; l < depth; l++ {
		leaves *= bf
	}
	g := &Graph{Kind: "tree", Nodes: make([]NodeSpec, total)}
	firstLeaf := total - leaves
	for i := 0; i < total; i++ {
		var ns NodeSpec
		if i >= firstLeaf {
			// Sensor leaf: the frame's sensing work split across leaves.
			ns = vertex(fmt.Sprintf("node%d", i+1), frameRefS/float64(leaves), payloadKB)
		} else {
			ns = vertex(fmt.Sprintf("node%d", i+1), aggRefS*float64(bf), payloadKB)
			ns.FanInAll = true
			ns.Parents = make([]int, bf)
			for b := 0; b < bf; b++ {
				ns.Parents[b] = i*bf + 1 + b
			}
		}
		if i == 0 {
			ns.Sink = true
			ns.OutKB = resultKB
		} else {
			ns.Children = []int{(i - 1) / bf}
		}
		g.Nodes[i] = ns
	}
	return g
}

// Mesh builds a sensor mesh with fan-in aggregation: sensors sampling
// every frame period, each wired to aggregator s mod aggregators, the
// aggregators fanning in to a single collector sink. Vertices are
// numbered sensors first (node1…), then aggregators, then the
// collector last.
func Mesh(sensors, aggregators int) *Graph {
	if sensors < 1 || aggregators < 1 || aggregators > sensors {
		panic(fmt.Sprintf("topology: mesh needs 1 ≤ aggregators ≤ sensors, got %d sensors, %d aggregators", sensors, aggregators))
	}
	total := sensors + aggregators + 1
	g := &Graph{Kind: "mesh", Nodes: make([]NodeSpec, total)}
	collector := total - 1
	for s := 0; s < sensors; s++ {
		ns := vertex(fmt.Sprintf("node%d", s+1), frameRefS/float64(sensors), payloadKB)
		ns.Children = []int{sensors + s%aggregators}
		g.Nodes[s] = ns
	}
	for a := 0; a < aggregators; a++ {
		i := sensors + a
		fanIn := 0
		for s := 0; s < sensors; s++ {
			if s%aggregators == a {
				fanIn++
			}
		}
		ns := vertex(fmt.Sprintf("node%d", i+1), aggRefS*float64(fanIn), payloadKB)
		ns.FanInAll = true
		ns.Parents = make([]int, 0, fanIn)
		for s := 0; s < sensors; s++ {
			if s%aggregators == a {
				ns.Parents = append(ns.Parents, s)
			}
		}
		ns.Children = []int{collector}
		g.Nodes[i] = ns
	}
	root := vertex(fmt.Sprintf("node%d", collector+1), aggRefS*float64(aggregators), resultKB)
	root.FanInAll = true
	root.Sink = true
	root.Parents = make([]int, aggregators)
	for a := 0; a < aggregators; a++ {
		root.Parents[a] = sensors + a
	}
	g.Nodes[collector] = root
	return g
}
