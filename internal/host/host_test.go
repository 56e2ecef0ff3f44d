package host

import (
	"testing"

	"dvsim/internal/serial"
	"dvsim/internal/sim"
)

// receiver stands in for a pipeline node on a sim.Task: it takes every
// message offered at its port, resting hold seconds after each.
type receiver struct {
	k         *sim.Kernel
	task      sim.Task
	rx        serial.Rx
	pt        *serial.Port
	hold      sim.Duration
	got       []serial.Message
	receiving bool
}

func (r *receiver) Resume(err error) {
	if r.receiving {
		done, msg, err := r.rx.Step(err)
		if !done {
			return
		}
		if err != nil {
			r.task.Exit()
			return
		}
		r.got = append(r.got, msg)
		if r.hold > 0 {
			r.receiving = false
			r.task.WaitUntil(r.k.Now() + r.hold)
			return
		}
	}
	// The start, a finished receive or the end of a rest: take the next
	// message. A receive with no deadline always blocks first.
	r.receiving = true
	r.rx.Recv(&r.task, r.pt, serial.RxOpts{})
}

// sender stands in for a node sending results on a sim.Task: it offers
// msgs from pt to dst in turn, and stops at the first error.
type sender struct {
	task    sim.Task
	tx      serial.Tx
	pt, dst *serial.Port
	msgs    []serial.Message
	sending bool
}

func (s *sender) Resume(err error) {
	if s.sending {
		done, err := s.tx.Step(err)
		if !done {
			return
		}
		if err != nil {
			s.task.Exit()
			return
		}
	}
	if len(s.msgs) == 0 {
		s.task.Exit()
		return
	}
	// A send with no deadline always blocks first.
	s.sending = true
	s.tx.Send(&s.task, s.pt, s.dst, s.msgs[0], serial.TxOpts{})
	s.msgs = s.msgs[1:]
}

// start starts owner on its task at time 0.
func start(k *sim.Kernel, task *sim.Task, owner sim.Resumer) {
	task.Init(k, owner)
	task.Start(0)
}

func TestSourcePacesFrames(t *testing.T) {
	k := sim.NewKernel()
	net := serial.NewNetwork(k, serial.DefaultLink())
	h := New(k, net)
	h.D = 2.3
	h.FrameKB = 10.1
	nodePort := net.Port("node1")
	h.Targets = []*serial.Port{nodePort}

	n := &receiver{k: k, pt: nodePort}
	start(k, &n.task, n)
	h.Start()
	k.At(23, func() { h.Stop() })
	k.RunUntil(40)
	// Frames at t = 0, 2.3, …, 20.7: 10 frames; each takes 1.1 s to
	// transfer, well within the period.
	if len(n.got) != 10 {
		t.Fatalf("accepted %d frames, want 10", len(n.got))
	}
	for i, m := range n.got {
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
	n := &receiver{k: k, pt: nodePort, hold: 4}
	start(k, &n.task, n)
	h.Start()
	k.At(23, func() { h.Stop() })
	k.RunUntil(200)
	if h.FramesDropped != 0 {
		t.Fatalf("dropped %d frames; the host buffers", h.FramesDropped)
	}
	if len(n.got) != 10 {
		t.Fatalf("slow node eventually received %d frames, want all 10", len(n.got))
	}
	for i, m := range n.got {
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
	var results []serial.Message
	for f := 0; f < 3; f++ {
		results = append(results, serial.Message{Kind: serial.KindResult, Frame: f, KB: 0.1})
	}
	s := &sender{pt: net.Port("node1"), dst: h.SinkPort(), msgs: results}
	start(k, &s.task, s)
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
	result := serial.Message{Kind: serial.KindResult, Frame: 4, KB: 0.1}
	s := &sender{pt: net.Port("node1"), dst: h.SinkPort(), msgs: []serial.Message{result}}
	start(k, &s.task, s)
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
