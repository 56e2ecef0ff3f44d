package serial

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"dvsim/internal/metrics"
	"dvsim/internal/sim"
)

func TestTxTimeMatchesFig6(t *testing.T) {
	lp := DefaultLink()
	// Paper Fig 6 communication times (±0.01 s rounding).
	cases := []struct{ kb, want float64 }{
		{10.1, 1.10},
		{7.5, 0.84},
		{0.6, 0.15},
		{0.1, 0.10},
	}
	for _, c := range cases {
		got := lp.TxTime(c.kb)
		if math.Abs(got-c.want) > 0.011 {
			t.Errorf("TxTime(%v KB) = %.3f s, want ≈%.2f (Fig 6)", c.kb, got, c.want)
		}
	}
}

func TestTxTimeProperties(t *testing.T) {
	lp := DefaultLink()
	if lp.TxTime(0) != 0 {
		t.Error("zero payload should cost nothing")
	}
	if lp.AckTime() < 0.05 || lp.AckTime() > 0.1 {
		t.Errorf("ack cost %v, want within the paper's 50–100 ms", lp.AckTime())
	}
	defer func() {
		if recover() == nil {
			t.Error("negative payload accepted")
		}
	}()
	lp.TxTime(-1)
}

func TestTxTimeGoodputIs80kbps(t *testing.T) {
	lp := DefaultLink()
	// Marginal rate: 1 extra KB costs 1/goodput seconds; 10 KB/s = 80 kbps.
	d := lp.TxTime(20) - lp.TxTime(10)
	if math.Abs(d-1.0) > 1e-9 {
		t.Errorf("10 KB costs %v s, want 1.0 (80 kbps)", d)
	}
	if lp.NominalKbps != 115.2 {
		t.Errorf("nominal %v kbps", lp.NominalKbps)
	}
}

func TestSendRecvRendezvousTiming(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	a, b := net.Port("a"), net.Port("b")
	var sendDone, recvDone sim.Time
	var got Message
	k.Spawn("sender", func(p *sim.Proc) {
		p.Wait(1) // sender arrives at t=1
		if err := a.Send(p, b, Message{Kind: KindInter, KB: 0.6, Frame: 7}); err != nil {
			t.Errorf("send: %v", err)
		}
		sendDone = p.Now()
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		m, err := b.Recv(p) // ready from t=0; waits for the sender
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		got = m
		recvDone = p.Now()
	})
	k.Run()
	want := sim.Time(1 + DefaultLink().TxTime(0.6))
	if math.Abs(float64(sendDone-want)) > 1e-9 || math.Abs(float64(recvDone-want)) > 1e-9 {
		t.Fatalf("completed at send=%v recv=%v, want %v", sendDone, recvDone, want)
	}
	if got.Frame != 7 || got.Kind != KindInter || got.From != "a" {
		t.Fatalf("message %+v", got)
	}
}

func TestRecvWaitsForLateSender(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	a, b := net.Port("a"), net.Port("b")
	k.Spawn("receiver", func(p *sim.Proc) {
		start := p.Now()
		if _, err := b.Recv(p); err != nil {
			t.Errorf("recv: %v", err)
		}
		if p.Now() <= start {
			t.Error("recv returned instantly with no sender")
		}
	})
	k.SpawnAt(5, "sender", func(p *sim.Proc) {
		a.Send(p, b, Message{KB: 0.1})
	})
	k.Run()
}

func TestAckUsesStartupCostOnly(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	a, b := net.Port("a"), net.Port("b")
	var done sim.Time
	k.Spawn("sender", func(p *sim.Proc) {
		if err := a.Send(p, b, Message{Kind: KindAck, KB: 0}); err != nil {
			t.Errorf("send: %v", err)
		}
		done = p.Now()
	})
	k.Spawn("receiver", func(p *sim.Proc) { b.Recv(p) })
	k.Run()
	if math.Abs(float64(done)-DefaultLink().AckTime()) > 1e-9 {
		t.Fatalf("ack completed at %v, want %v", done, DefaultLink().AckTime())
	}
}

func TestSendDeadlineExpiresWithoutReceiver(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	a, b := net.Port("a"), net.Port("b")
	var err error
	var at sim.Time
	k.Spawn("sender", func(p *sim.Proc) {
		err = a.SendDeadline(p, b, Message{KB: 1}, 2)
		at = p.Now()
	})
	k.Run()
	if !errors.Is(err, sim.ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	if at != 2 {
		t.Fatalf("timed out at %v, want 2", at)
	}
}

func TestRecvDeadlineExpiresWithoutSender(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	b := net.Port("b")
	var err error
	k.Spawn("receiver", func(p *sim.Proc) {
		_, err = b.RecvDeadline(p, 3)
	})
	k.Run()
	if !errors.Is(err, sim.ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestWithdrawnOfferIsSkipped(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	a, b, c := net.Port("a"), net.Port("b"), net.Port("c")
	// a offers to c but gives up at t=1; b offers at t=2; the receiver
	// must get b's message.
	k.Spawn("a", func(p *sim.Proc) {
		if err := a.SendDeadline(p, c, Message{KB: 1, Frame: 1}, 1); !errors.Is(err, sim.ErrTimeout) {
			t.Errorf("a: err = %v", err)
		}
	})
	k.SpawnAt(2, "b", func(p *sim.Proc) {
		if err := b.Send(p, c, Message{KB: 1, Frame: 2}); err != nil {
			t.Errorf("b: %v", err)
		}
	})
	var got Message
	k.SpawnAt(3, "receiver", func(p *sim.Proc) {
		m, err := c.Recv(p)
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		got = m
	})
	k.Run()
	if got.Frame != 2 || got.From != "b" {
		t.Fatalf("got %+v, want frame 2 from b", got)
	}
}

func TestDeadSenderMidTransferTimesOutReceiver(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	a, b := net.Port("a"), net.Port("b")
	sender := k.Spawn("sender", func(p *sim.Proc) {
		// 10 KB transfer takes ~1.09 s; the sender is killed at 0.5.
		if err := a.Send(p, b, Message{KB: 10}); err == nil {
			t.Error("dead sender completed send")
		}
	})
	k.At(0.5, func() { sender.Interrupt("battery died") })
	var err error
	k.Spawn("receiver", func(p *sim.Proc) {
		_, err = b.RecvDeadline(p, 5)
	})
	k.Run()
	if !errors.Is(err, sim.ErrTimeout) {
		t.Fatalf("receiver err = %v, want timeout", err)
	}
}

// A sender dying mid-transfer must not error out an open-ended
// receiver: the broken delivery is discarded like any aborted transfer
// and the receiver keeps serving later senders (the host sink relies on
// this to survive node crashes).
func TestDeadSenderDoesNotKillOpenReceiver(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	a, b, c := net.Port("a"), net.Port("b"), net.Port("c")
	sender := k.Spawn("doomed", func(p *sim.Proc) {
		if err := a.Send(p, c, Message{KB: 10, Frame: 1}); err == nil {
			t.Error("dead sender completed send")
		}
	})
	k.At(0.5, func() { sender.Interrupt("crash") })
	k.SpawnAt(3, "healthy", func(p *sim.Proc) {
		if err := b.Send(p, c, Message{KB: 1, Frame: 2}); err != nil {
			t.Errorf("healthy send: %v", err)
		}
	})
	var got Message
	var aborts int
	k.Spawn("receiver", func(p *sim.Proc) {
		m, err := c.RecvOpts(p, RxOpts{OnAbort: func() { aborts++ }})
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		got = m
	})
	k.Run()
	if got.Frame != 2 {
		t.Fatalf("received %+v, want frame 2 from the healthy sender", got)
	}
	if aborts != 1 || c.Stats().RxDropped != 1 {
		t.Fatalf("aborts=%d RxDropped=%d, want 1 each for the broken transfer", aborts, c.Stats().RxDropped)
	}
}

func TestNetworkStats(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	a, b := net.Port("a"), net.Port("b")
	k.Spawn("s", func(p *sim.Proc) {
		a.Send(p, b, Message{KB: 2})
		a.Send(p, b, Message{KB: 3})
	})
	k.Spawn("r", func(p *sim.Proc) {
		b.Recv(p)
		b.Recv(p)
	})
	k.Run()
	if net.Transfers() != 2 {
		t.Fatalf("transfers = %d", net.Transfers())
	}
	if math.Abs(net.KBMoved()-5) > 1e-12 {
		t.Fatalf("KB moved = %v", net.KBMoved())
	}
}

func TestPortReuseAndPending(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	if net.Port("x") != net.Port("x") {
		t.Fatal("Port not memoized")
	}
	a, b := net.Port("a"), net.Port("b")
	k.Spawn("s", func(p *sim.Proc) { a.Send(p, b, Message{KB: 1}) })
	k.RunUntil(0.01)
	if b.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", b.Pending())
	}
	k.Spawn("r", func(p *sim.Proc) { b.Recv(p) })
	k.Run()
	if b.Pending() != 0 {
		t.Fatalf("pending after delivery = %d", b.Pending())
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindFrame: "frame", KindInter: "inter", KindResult: "result",
		KindAck: "ack", KindCtrl: "ctrl", Kind(9): "Kind(9)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

// Property: messages from one sender to one receiver arrive in order and
// exactly once, regardless of payload sizes and gaps.
func TestPropertyInOrderExactlyOnce(t *testing.T) {
	f := func(sizes []uint8) bool {
		if len(sizes) > 20 {
			sizes = sizes[:20]
		}
		k := sim.NewKernel()
		net := NewNetwork(k, DefaultLink())
		a, b := net.Port("a"), net.Port("b")
		n := len(sizes)
		k.Spawn("s", func(p *sim.Proc) {
			for i, s := range sizes {
				p.Wait(sim.Duration(s%3) / 10)
				if a.Send(p, b, Message{Frame: i, KB: float64(s%50) / 10}) != nil {
					return
				}
			}
		})
		var got []int
		k.Spawn("r", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				m, err := b.Recv(p)
				if err != nil {
					return
				}
				got = append(got, m.Frame)
			}
		})
		k.Run()
		if len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: transfer duration equals TxTime exactly for any payload.
func TestPropertyTransferDuration(t *testing.T) {
	f := func(kbRaw uint16) bool {
		kb := float64(kbRaw%200) / 10
		k := sim.NewKernel()
		net := NewNetwork(k, DefaultLink())
		a, b := net.Port("a"), net.Port("b")
		var done sim.Time
		k.Spawn("s", func(p *sim.Proc) {
			a.Send(p, b, Message{KB: kb})
			done = p.Now()
		})
		k.Spawn("r", func(p *sim.Proc) { b.Recv(p) })
		k.Run()
		return math.Abs(float64(done)-net.Params.TxTime(kb)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIrDALinkIsStrictlyWorse(t *testing.T) {
	ser := DefaultLink()
	ir := IrDALink()
	if ir.NominalKbps != ser.NominalKbps {
		t.Errorf("both ports are 115.2 kbps class")
	}
	for _, kb := range []float64{0.1, 0.6, 7.5, 10.1} {
		if ir.TxTime(kb) <= ser.TxTime(kb) {
			t.Errorf("IR should be slower at %v KB: %v vs %v", kb, ir.TxTime(kb), ser.TxTime(kb))
		}
	}
	if ir.AckTime() <= ser.AckTime() {
		t.Error("IR turnaround should make acks costlier")
	}
}

func TestPortStatsAccounting(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	a, b := net.Port("a"), net.Port("b")
	k.Spawn("s", func(p *sim.Proc) {
		a.Send(p, b, Message{Kind: KindFrame, KB: 10.1})
		a.Send(p, b, Message{Kind: KindAck})
	})
	k.Spawn("r", func(p *sim.Proc) {
		b.Recv(p)
		b.Recv(p)
	})
	k.Run()

	as, bs := a.Stats(), b.Stats()
	if as.TxTransfers != 2 || as.TxAcks != 1 {
		t.Fatalf("a tx stats %+v, want 2 transfers, 1 ack", as)
	}
	if math.Abs(as.TxKB-10.1) > 1e-9 {
		t.Fatalf("a TxKB = %v, want 10.1 (acks carry no payload)", as.TxKB)
	}
	// Startup time is paid once per transaction (ack = startup only).
	wantStartup := net.Params.StartupS + net.Params.AckTime()
	if math.Abs(as.TxStartupS-wantStartup) > 1e-6 {
		t.Fatalf("a TxStartupS = %v, want %v", as.TxStartupS, wantStartup)
	}
	if bs.RxTransfers != 2 || math.Abs(bs.RxKB-10.1) > 1e-9 {
		t.Fatalf("b rx stats %+v, want 2 transfers / 10.1 KB", bs)
	}
	if bs.TxTransfers != 0 || as.RxTransfers != 0 {
		t.Fatal("stats credited to the wrong side")
	}
}

func TestPortStatsTimeoutsAndPending(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	a, b, c := net.Port("a"), net.Port("b"), net.Port("c")
	// Receiver that never shows up: the send times out.
	k.Spawn("s1", func(p *sim.Proc) {
		if err := a.SendDeadline(p, b, Message{KB: 1}, 2); !errors.Is(err, sim.ErrTimeout) {
			t.Errorf("send err = %v, want timeout", err)
		}
	})
	// Sender that never shows up: the recv times out.
	k.Spawn("r1", func(p *sim.Proc) {
		if _, err := c.RecvDeadline(p, 3); !errors.Is(err, sim.ErrTimeout) {
			t.Errorf("recv err = %v, want timeout", err)
		}
	})
	k.Run()
	if got := a.Stats().TxTimeouts; got != 1 {
		t.Fatalf("TxTimeouts = %d, want 1", got)
	}
	if got := c.Stats().RxTimeouts; got != 1 {
		t.Fatalf("RxTimeouts = %d, want 1", got)
	}
	if got := b.Stats().MaxPending; got != 1 {
		t.Fatalf("MaxPending = %d, want 1 (the abandoned offer was queued)", got)
	}
}

func TestNetworkMetricsAndOnTransfer(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	reg := metrics.New(k)
	net.SetMetrics(reg)
	var events []TransferEvent
	net.OnTransfer = func(ev TransferEvent) { events = append(events, ev) }
	a, b := net.Port("a"), net.Port("b")
	k.Spawn("s", func(p *sim.Proc) { a.Send(p, b, Message{Kind: KindInter, KB: 0.6}) })
	k.Spawn("r", func(p *sim.Proc) { b.Recv(p) })
	k.Run()

	if len(events) != 1 {
		t.Fatalf("OnTransfer fired %d times, want 1", len(events))
	}
	ev := events[0]
	if ev.From != "a" || ev.To != "b" || ev.Kind != KindInter {
		t.Fatalf("event %+v", ev)
	}
	if math.Abs(ev.DurS-net.Params.TxTime(0.6)) > 1e-9 {
		t.Fatalf("DurS = %v, want %v", ev.DurS, net.Params.TxTime(0.6))
	}
	snap := reg.Snapshot()
	find := func(name, node string) float64 {
		for _, cv := range snap.Counters {
			if cv.Name == name && cv.Node == node {
				return cv.Value
			}
		}
		t.Fatalf("counter %s{%s} missing from snapshot", name, node)
		return 0
	}
	if v := find("serial_tx_transfers", "a"); v != 1 {
		t.Fatalf("serial_tx_transfers{a} = %v, want 1", v)
	}
	if v := find("serial_rx_kb", "b"); math.Abs(v-0.6) > 1e-9 {
		t.Fatalf("serial_rx_kb{b} = %v, want 0.6", v)
	}
}

// TestPendingFIFOUnderMatchAndWithdraw: the pending FIFO keeps posting
// order when a matching receive takes an offer from its middle and when
// a sender withdraws, and Pending counts live offers only.
func TestPendingFIFOUnderMatchAndWithdraw(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	c := net.Port("c")
	send := func(from string, msg Message, deadline sim.Time) {
		k.Spawn(from, func(p *sim.Proc) { net.Port(from).SendDeadline(p, c, msg, deadline) })
	}
	send("a", Message{Kind: KindFrame, Frame: 1, KB: 1}, 0)
	send("w", Message{Kind: KindFrame, Frame: 9, KB: 1}, 0.5) // withdraws
	send("b", Message{Kind: KindAck, Frame: 1}, 0)
	send("d", Message{Kind: KindFrame, Frame: 2, KB: 1}, 0)
	k.RunUntil(0.1)
	if c.Pending() != 4 {
		t.Fatalf("pending = %d, want 4", c.Pending())
	}
	var got []Message
	var pendingAfterAck int
	k.SpawnAt(1, "r", func(p *sim.Proc) {
		m, err := c.RecvOpts(p, RxOpts{Accept: KindsOf(KindAck)})
		if err != nil {
			t.Errorf("ack: %v", err)
		}
		got = append(got, m)
		pendingAfterAck = c.Pending()
		for i := 0; i < 2; i++ {
			m, err := c.Recv(p)
			if err != nil {
				t.Errorf("recv: %v", err)
			}
			got = append(got, m)
		}
	})
	k.Run()
	if pendingAfterAck != 2 {
		t.Errorf("pending after the ack = %d, want 2 (withdrawn offer gone)", pendingAfterAck)
	}
	if len(got) != 3 || got[0].From != "b" || got[1].Frame != 1 || got[2].Frame != 2 {
		t.Fatalf("received %+v, want b's ack, then frames 1 and 2 in order", got)
	}
	if c.Pending() != 0 || c.Stats().MaxPending != 4 {
		t.Fatalf("pending %d, max %d; want 0 and 4", c.Pending(), c.Stats().MaxPending)
	}
}

// TestRecvPassesUnacceptedBacklog: a receive blocked behind a backlog
// of offers it does not accept takes the acceptable ones as they
// arrive, in arrival order, and leaves the backlog queued in its own
// order for a receive that accepts it.
func TestRecvPassesUnacceptedBacklog(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	c := net.Port("c")
	const backlog = 50
	for i := 0; i < backlog; i++ {
		from := fmt.Sprintf("f%02d", i)
		k.Spawn(from, func(p *sim.Proc) { net.Port(from).Send(p, c, Message{Kind: KindFrame, Frame: i, KB: 0.1}) })
	}
	for i, at := range []sim.Time{1, 1, 2} {
		from := fmt.Sprintf("i%d", i)
		k.SpawnAt(at, from, func(p *sim.Proc) { net.Port(from).Send(p, c, Message{Kind: KindInter, Frame: i, KB: 0.1}) })
	}
	var inter, frames []int
	var pendingAfterInter int
	k.Spawn("r", func(p *sim.Proc) {
		for range 3 {
			m, err := c.RecvOpts(p, RxOpts{Accept: KindsOf(KindInter, KindCtrl)})
			if err != nil {
				t.Errorf("inter: %v", err)
			}
			inter = append(inter, m.Frame)
		}
		pendingAfterInter = c.Pending()
		for range backlog {
			m, err := c.RecvOpts(p, RxOpts{Accept: KindsOf(KindFrame)})
			if err != nil {
				t.Errorf("frame: %v", err)
			}
			frames = append(frames, m.Frame)
		}
	})
	k.Run()
	if !slices.Equal(inter, []int{0, 1, 2}) {
		t.Fatalf("internode frames received as %v, want 0, 1, 2", inter)
	}
	if pendingAfterInter != backlog {
		t.Fatalf("pending after the internode receives = %d, want the %d-frame backlog", pendingAfterInter, backlog)
	}
	for i, f := range frames {
		if f != i {
			t.Fatalf("backlog received as %v, want arrival order", frames)
		}
	}
	// Both offers of t=1 queue before the receive wakes.
	if c.Pending() != 0 || c.Stats().MaxPending != backlog+2 {
		t.Fatalf("pending %d, max %d; want 0 and %d", c.Pending(), c.Stats().MaxPending, backlog+2)
	}
}
