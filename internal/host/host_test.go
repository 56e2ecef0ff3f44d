package host

import (
	"testing"

	"dvsim/internal/serial"
	"dvsim/internal/sim"
)

// acceptor drains a port, acknowledging frames like a trivially fast node.
func acceptor(k *sim.Kernel, pt *serial.Port, got *[]serial.Message) {
	k.Spawn("acceptor-"+pt.Name(), func(p *sim.Proc) {
		for {
			m, err := pt.Recv(p)
			if err != nil {
				return
			}
			*got = append(*got, m)
		}
	})
}

func TestSourcePacesFrames(t *testing.T) {
	k := sim.NewKernel()
	net := serial.NewNetwork(k, serial.DefaultLink())
	h := New(k, net)
	h.D = 2.3
	h.FrameKB = 10.1
	nodePort := net.Port("node1")
	h.Targets = []*serial.Port{nodePort}

	var got []serial.Message
	acceptor(k, nodePort, &got)
	h.Start()
	k.At(23, func() { h.Stop() })
	k.RunUntil(40)
	// Frames at t = 0, 2.3, …, 20.7: 10 frames; each takes 1.1 s to
	// transfer, well within the period.
	if len(got) != 10 {
		t.Fatalf("accepted %d frames, want 10", len(got))
	}
	for i, m := range got {
		if m.Frame != i || m.Kind != serial.KindFrame {
			t.Fatalf("frame %d: %+v", i, m)
		}
	}
	if h.FramesSent != 10 || h.FramesDropped != 0 {
		t.Fatalf("sent %d dropped %d", h.FramesSent, h.FramesDropped)
	}
}

func TestSourceBuffersForSlowNode(t *testing.T) {
	k := sim.NewKernel()
	net := serial.NewNetwork(k, serial.DefaultLink())
	h := New(k, net)
	h.D = 2.3
	h.FrameKB = 10.1
	nodePort := net.Port("node1")
	h.Targets = []*serial.Port{nodePort}

	// A node that takes 4 s per frame: the queue must grow, nothing
	// dropped.
	var got []serial.Message
	k.Spawn("slow-node", func(p *sim.Proc) {
		for {
			m, err := nodePort.Recv(p)
			if err != nil {
				return
			}
			got = append(got, m)
			if p.Wait(4) != nil {
				return
			}
		}
	})
	h.Start()
	k.At(23, func() { h.Stop() })
	k.RunUntil(200)
	if h.FramesDropped != 0 {
		t.Fatalf("dropped %d frames; the host buffers", h.FramesDropped)
	}
	if len(got) != 10 {
		t.Fatalf("slow node eventually received %d frames, want all 10", len(got))
	}
	for i, m := range got {
		if m.Frame != i {
			t.Fatalf("frames reordered: position %d has frame %d", i, m.Frame)
		}
	}
	if h.MaxQueue < 2 {
		t.Fatalf("MaxQueue %d; a backlog should have formed", h.MaxQueue)
	}
}

func TestSinkCollectsResults(t *testing.T) {
	k := sim.NewKernel()
	net := serial.NewNetwork(k, serial.DefaultLink())
	h := New(k, net)
	h.D = 2.3
	var seen []Result
	h.OnResult = func(r Result) { seen = append(seen, r) }
	h.Start()
	nodePort := net.Port("node1")
	k.Spawn("node", func(p *sim.Proc) {
		for f := 0; f < 3; f++ {
			if nodePort.Send(p, h.SinkPort(), serial.Message{Kind: serial.KindResult, Frame: f, KB: 0.1}) != nil {
				return
			}
		}
	})
	k.RunUntil(10)
	if len(seen) != 3 {
		t.Fatalf("observed %d results, want 3", len(seen))
	}
	if seen[2].Frame != 2 || seen[2].From != "node1" {
		t.Fatalf("result: %+v", seen[2])
	}
}

// TestStoppedHostOnlyCollects: a host stopped before Start — the
// collector of a fleet whose sources pace themselves — runs its sink
// but no source, and never opens a source port.
func TestStoppedHostOnlyCollects(t *testing.T) {
	k := sim.NewKernel()
	net := serial.NewNetwork(k, serial.DefaultLink())
	h := New(k, net)
	h.D = 2.3
	h.Stop()
	var seen []Result
	h.OnResult = func(r Result) { seen = append(seen, r) }
	h.Start()
	nodePort := net.Port("node1")
	k.Spawn("node", func(p *sim.Proc) {
		nodePort.Send(p, h.SinkPort(), serial.Message{Kind: serial.KindResult, Frame: 4, KB: 0.1})
	})
	k.RunUntil(10)
	if len(seen) != 1 || seen[0].Frame != 4 {
		t.Fatalf("observed %+v, want frame 4", seen)
	}
	for _, pt := range net.Ports() {
		if pt.Name() == "host-src" {
			t.Fatal("a sink-only host opened its source port")
		}
	}
	if h.FramesSent != 0 || h.FramesDropped != 0 {
		t.Fatalf("sink-only host sourced frames: sent %d dropped %d", h.FramesSent, h.FramesDropped)
	}
}

func TestRole1PhysFollowsRotation(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, serial.NewNetwork(k, serial.DefaultLink()))
	h.RotationPeriod = 100
	h.Targets = make([]*serial.Port, 2)
	cases := []struct{ frame, want int }{
		{0, 0}, {99, 0}, {100, 1}, {199, 1}, {200, 0}, {299, 0}, {300, 1},
	}
	for _, c := range cases {
		if got := h.role1Phys(c.frame); got != c.want {
			t.Errorf("role1Phys(%d) = %d, want %d", c.frame, got, c.want)
		}
	}
	// Three nodes rotate backwards through the ring.
	h.Targets = make([]*serial.Port, 3)
	for _, c := range []struct{ frame, want int }{
		{0, 0}, {100, 2}, {200, 1}, {300, 0},
	} {
		if got := h.role1Phys(c.frame); got != c.want {
			t.Errorf("N=3 role1Phys(%d) = %d, want %d", c.frame, got, c.want)
		}
	}
	// Without rotation it is always the first node.
	h.RotationPeriod = 0
	if h.role1Phys(12345) != 0 {
		t.Error("static pipeline must target node 1")
	}
}

func TestPickTargetSkipsDeadNodes(t *testing.T) {
	k := sim.NewKernel()
	net := serial.NewNetwork(k, serial.DefaultLink())
	h := New(k, net)
	a, b := net.Port("a"), net.Port("b")
	h.Targets = []*serial.Port{a, b}
	aAlive := true
	h.Alive = []func() bool{func() bool { return aAlive }, func() bool { return true }}
	if h.pickTarget(0) != a {
		t.Fatal("should target a while alive")
	}
	aAlive = false
	if h.pickTarget(0) != b {
		t.Fatal("should fall through to b when a is dead")
	}
	h.Alive[1] = func() bool { return false }
	if h.pickTarget(0) != nil {
		t.Fatal("no live node: no target")
	}
}

func TestSourceCountsUndeliverableFrames(t *testing.T) {
	k := sim.NewKernel()
	net := serial.NewNetwork(k, serial.DefaultLink())
	h := New(k, net)
	h.D = 1
	h.Targets = []*serial.Port{net.Port("x")}
	h.Alive = []func() bool{func() bool { return false }}
	h.Start()
	k.At(5.5, func() { h.Stop() })
	k.RunUntil(10)
	if h.FramesDropped != 6 {
		t.Fatalf("dropped %d, want 6 (t=0..5)", h.FramesDropped)
	}
}
