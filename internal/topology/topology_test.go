package topology

import (
	"strings"
	"testing"

	"dvsim/internal/cpu"
)

func TestSerialShape(t *testing.T) {
	for _, n := range []int{1, 2, 3, 16} {
		g := Serial(n)
		if err := g.Validate(); err != nil {
			t.Fatalf("Serial(%d): %v", n, err)
		}
		if len(g.Nodes) != n {
			t.Fatalf("Serial(%d): %d nodes", n, len(g.Nodes))
		}
		chain := g.Chain()
		if chain == nil {
			t.Fatalf("Serial(%d): not detected as a chain", n)
		}
		for i, ns := range chain {
			if want := g.Nodes[i].Name; ns.Name != want {
				t.Fatalf("Serial(%d): chain order %q at %d, want %q", n, ns.Name, i, want)
			}
		}
		if !chain[n-1].Sink {
			t.Fatalf("Serial(%d): last node is not the sink", n)
		}
		// The frame's work is conserved across the split.
		var sum float64
		for _, ns := range g.Nodes {
			sum += ns.RefS
		}
		want := frameRefS
		if diff := sum - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("Serial(%d): total RefS %g, want %g", n, sum, want)
		}
	}
}

func TestWideShape(t *testing.T) {
	g := Wide(3, 4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 12 {
		t.Fatalf("got %d nodes", len(g.Nodes))
	}
	if g.Chain() != nil {
		t.Fatal("wide pipeline misdetected as a chain")
	}
	sources, sinks := 0, 0
	for _, ns := range g.Nodes {
		if ns.Source() {
			sources++
			if ns.Stride != 4 {
				t.Fatalf("source %s stride %d, want 4", ns.Name, ns.Stride)
			}
		}
		if ns.Sink {
			sinks++
		}
		if ns.BudgetFactor != 4 {
			t.Fatalf("%s budget factor %g, want 4", ns.Name, ns.BudgetFactor)
		}
	}
	if sources != 4 || sinks != 4 {
		t.Fatalf("got %d sources, %d sinks; want 4 and 4", sources, sinks)
	}
	// Width 1 degenerates to a chain.
	if Wide(3, 1).Chain() == nil {
		t.Fatal("Wide(3,1) should be a chain")
	}
}

func TestTreeShape(t *testing.T) {
	g := Tree(2, 4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 31 {
		t.Fatalf("complete binary tree of depth 4: got %d nodes, want 31", len(g.Nodes))
	}
	if g.Chain() != nil {
		t.Fatal("tree misdetected as a chain")
	}
	leaves, aggs := 0, 0
	for i, ns := range g.Nodes {
		if ns.Source() {
			leaves++
			if ns.FanInAll {
				t.Fatalf("leaf %s has FanInAll", ns.Name)
			}
		} else {
			aggs++
			if !ns.FanInAll || len(ns.Parents) != 2 {
				t.Fatalf("interior %s: FanInAll=%v parents=%d", ns.Name, ns.FanInAll, len(ns.Parents))
			}
		}
		if (i == 0) != ns.Sink {
			t.Fatalf("node %d sink=%v", i, ns.Sink)
		}
	}
	if leaves != 16 || aggs != 15 {
		t.Fatalf("got %d leaves, %d aggregators", leaves, aggs)
	}
}

func TestMeshShape(t *testing.T) {
	g := Mesh(12, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 16 {
		t.Fatalf("got %d nodes, want 16", len(g.Nodes))
	}
	root := g.Nodes[15]
	if !root.Sink || !root.FanInAll || len(root.Parents) != 3 {
		t.Fatalf("collector: %+v", root)
	}
	for a := 0; a < 3; a++ {
		agg := g.Nodes[12+a]
		if len(agg.Parents) != 4 {
			t.Fatalf("aggregator %s has %d sensors, want 4", agg.Name, len(agg.Parents))
		}
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Graph { return Serial(3) }
	cases := []struct {
		name   string
		mutate func(g *Graph)
		want   string
	}{
		{"empty", func(g *Graph) { g.Nodes = nil }, "no nodes"},
		{"dup name", func(g *Graph) { g.Nodes[1].Name = g.Nodes[0].Name }, "duplicate node name"},
		{"zero work", func(g *Graph) { g.Nodes[1].RefS = 0 }, "non-positive RefS"},
		{"no points", func(g *Graph) { g.Nodes[1].Compute = cpu.OperatingPoint{} }, "operating points"},
		{"sink with children", func(g *Graph) { g.Nodes[2].Children = []int{0}; g.Nodes[0].Parents = []int{2} }, "has children"},
		{"dangling child", func(g *Graph) { g.Nodes[2].Sink = false; g.Nodes[2].Children = []int{9} }, "out of range"},
		{"one-way edge", func(g *Graph) { g.Nodes[1].Parents = nil }, "adjacency lists disagree"},
		{"no sink", func(g *Graph) { g.Nodes[2].Sink = false }, "not a sink"},
		{"self edge", func(g *Graph) { g.Nodes[1].Children = []int{1} }, "self-edge"},
	}
	for _, tc := range cases {
		g := base()
		tc.mutate(g)
		err := g.Validate()
		if err == nil {
			t.Fatalf("%s: Validate accepted a broken graph", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	// a -> b, b <-> c (the cycle), b -> d (the sink): every local
	// invariant holds, only Kahn's pass can reject it.
	v := vertex
	g := &Graph{Kind: "custom", Nodes: []NodeSpec{
		func() NodeSpec { n := v("a", 1, 1); n.Children = []int{1}; return n }(),
		func() NodeSpec {
			n := v("b", 1, 1)
			n.Parents, n.Children = []int{0, 2}, []int{2, 3}
			return n
		}(),
		func() NodeSpec { n := v("c", 1, 1); n.Parents, n.Children = []int{1}, []int{1}; return n }(),
		func() NodeSpec { n := v("d", 1, 1); n.Parents, n.Sink = []int{1}, true; return n }(),
	}}
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not rejected: %v", err)
	}
}
