package serial

import (
	"errors"
	"fmt"
	"math"
	"reflect"
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
	// The sender arrives at t=1; the receiver is ready from t=0 and
	// waits for it.
	run(k, 0, wait(1), send(a, b, Message{Kind: KindInter, KB: 0.6, Frame: 7}, TxOpts{}, func(err error) {
		if err != nil {
			t.Errorf("send: %v", err)
		}
		sendDone = k.Now()
	}))
	run(k, 0, recv(b, RxOpts{}, func(m Message, err error) {
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		got = m
		recvDone = k.Now()
	}))
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
	var at sim.Time
	run(k, 0, recv(b, RxOpts{}, func(_ Message, err error) {
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		at = k.Now()
	}))
	run(k, 5, send(a, b, Message{KB: 0.1}, TxOpts{}, nil))
	k.Run()
	if want := sim.Time(5 + DefaultLink().TxTime(0.1)); math.Abs(float64(at-want)) > 1e-9 {
		t.Fatalf("recv returned at %v, want %v (the late sender's completion)", at, want)
	}
}

func TestAckUsesStartupCostOnly(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	a, b := net.Port("a"), net.Port("b")
	var done sim.Time
	run(k, 0, send(a, b, Message{Kind: KindAck, KB: 0}, TxOpts{}, func(err error) {
		if err != nil {
			t.Errorf("send: %v", err)
		}
		done = k.Now()
	}))
	run(k, 0, recv(b, RxOpts{}, nil))
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
	run(k, 0, send(a, b, Message{KB: 1}, TxOpts{Deadline: 2}, func(e error) {
		err, at = e, k.Now()
	}))
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
	var at sim.Time
	run(k, 0, recv(b, RxOpts{Deadline: 3}, func(_ Message, e error) { err, at = e, k.Now() }))
	k.Run()
	if !errors.Is(err, sim.ErrTimeout) || at != 3 {
		t.Fatalf("err = %v at %v, want timeout at 3", err, at)
	}
}

func TestWithdrawnOfferIsSkipped(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	a, b, c := net.Port("a"), net.Port("b"), net.Port("c")
	// a offers to c but gives up at t=1; b offers at t=2; the receiver
	// must get b's message.
	run(k, 0, send(a, c, Message{KB: 1, Frame: 1}, TxOpts{Deadline: 1}, func(err error) {
		if !errors.Is(err, sim.ErrTimeout) {
			t.Errorf("a: err = %v", err)
		}
	}))
	run(k, 2, send(b, c, Message{KB: 1, Frame: 2}, TxOpts{}, func(err error) {
		if err != nil {
			t.Errorf("b: %v", err)
		}
	}))
	var got Message
	run(k, 3, recv(c, RxOpts{}, func(m Message, err error) {
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		got = m
	}))
	k.Run()
	if got.Frame != 2 || got.From != "b" {
		t.Fatalf("got %+v, want frame 2 from b", got)
	}
}

func TestDeadSenderMidTransferTimesOutReceiver(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	a, b := net.Port("a"), net.Port("b")
	// A 10 KB transfer takes ~1.09 s; the sender dies at 0.5.
	sender := run(k, 0, send(a, b, Message{KB: 10}, TxOpts{}, func(err error) {
		if err == nil {
			t.Error("dead sender completed send")
		}
	}))
	k.At(0.5, sender.task.Interrupt)
	var err error
	run(k, 0, recv(b, RxOpts{Deadline: 5}, func(_ Message, e error) { err = e }))
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
	doomed := run(k, 0, send(a, c, Message{KB: 10, Frame: 1}, TxOpts{}, func(err error) {
		if err == nil {
			t.Error("dead sender completed send")
		}
	}))
	k.At(0.5, doomed.task.Interrupt)
	run(k, 3, send(b, c, Message{KB: 1, Frame: 2}, TxOpts{}, func(err error) {
		if err != nil {
			t.Errorf("healthy send: %v", err)
		}
	}))
	var got Message
	var aborts int
	run(k, 0, recv(c, RxOpts{OnAbort: func() { aborts++ }}, func(m Message, err error) {
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		got = m
	}))
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
	run(k, 0, send(a, b, Message{KB: 2}, TxOpts{}, nil), send(a, b, Message{KB: 3}, TxOpts{}, nil))
	run(k, 0, recv(b, RxOpts{}, nil), recv(b, RxOpts{}, nil))
	k.Run()
	as, bs := a.Stats(), b.Stats()
	if as.TxTransfers != 2 || bs.RxTransfers != 2 {
		t.Fatalf("transfers: %d sent, %d received; want 2 each", as.TxTransfers, bs.RxTransfers)
	}
	if math.Abs(as.TxKB-5) > 1e-12 || math.Abs(bs.RxKB-5) > 1e-12 {
		t.Fatalf("KB moved: %v sent, %v received; want 5 each", as.TxKB, bs.RxKB)
	}
}

func TestPortReuseAndPending(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	if net.Port("x") != net.Port("x") {
		t.Fatal("Port not memoized")
	}
	a, b := net.Port("a"), net.Port("b")
	run(k, 0, send(a, b, Message{KB: 1}, TxOpts{}, nil))
	k.RunUntil(0.01)
	if b.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", b.Pending())
	}
	run(k, k.Now(), recv(b, RxOpts{}, nil))
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
		var sends, recvs []step
		var got []int
		for i, s := range sizes {
			sends = append(sends, wait(sim.Duration(s%3)/10),
				send(a, b, Message{Frame: i, KB: float64(s%50) / 10}, TxOpts{}, nil))
			recvs = append(recvs, recv(b, RxOpts{}, func(m Message, err error) {
				if err == nil {
					got = append(got, m.Frame)
				}
			}))
		}
		run(k, 0, sends...)
		run(k, 0, recvs...)
		k.Run()
		if len(got) != len(sizes) {
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
		run(k, 0, send(a, b, Message{KB: kb}, TxOpts{}, func(error) { done = k.Now() }))
		run(k, 0, recv(b, RxOpts{}, nil))
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
	run(k, 0, send(a, b, Message{Kind: KindFrame, KB: 10.1}, TxOpts{}, nil), send(a, b, Message{Kind: KindAck}, TxOpts{}, nil))
	run(k, 0, recv(b, RxOpts{}, nil), recv(b, RxOpts{}, nil))
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
	run(k, 0, send(a, b, Message{KB: 1}, TxOpts{Deadline: 2}, func(err error) {
		if !errors.Is(err, sim.ErrTimeout) {
			t.Errorf("send err = %v, want timeout", err)
		}
	}))
	// Sender that never shows up: the recv times out.
	run(k, 0, recv(c, RxOpts{Deadline: 3}, func(_ Message, err error) {
		if !errors.Is(err, sim.ErrTimeout) {
			t.Errorf("recv err = %v, want timeout", err)
		}
	}))
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

// TestNetworkMetricsAndOnTransfer: a transfer reaches the OnTransfer
// observer, its ports' accounting reads back through Port.Counters, an
// idle port reports nothing, and the receiver's pending depth lands on
// the registry's gauge.
func TestNetworkMetricsAndOnTransfer(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	reg := metrics.New(k)
	net.SetMetrics(reg)
	var events []TransferEvent
	net.OnTransfer = func(ev TransferEvent) { events = append(events, ev) }
	a, b, idle := net.Port("a"), net.Port("b"), net.Port("idle")
	run(k, 0, send(a, b, Message{Kind: KindInter, KB: 0.6}, TxOpts{}, nil))
	run(k, 0, recv(b, RxOpts{}, nil))
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
	counters := func(pt *Port) map[string]float64 {
		m := map[string]float64{}
		pt.Counters(func(name string, v float64) { m[name] = v })
		return m
	}
	ca, cb := counters(a), counters(b)
	if len(ca) != 13 || len(cb) != 13 {
		t.Fatalf("ports report %d and %d counters, want 13 each", len(ca), len(cb))
	}
	if v := ca["serial_tx_transfers"]; v != 1 {
		t.Fatalf("serial_tx_transfers{a} = %v, want 1", v)
	}
	if v := cb["serial_rx_kb"]; math.Abs(v-0.6) > 1e-9 {
		t.Fatalf("serial_rx_kb{b} = %v, want 0.6", v)
	}
	if v := ca["serial_tx_startup_s"]; v != a.Stats().TxStartupS || v <= 0 {
		t.Fatalf("serial_tx_startup_s{a} = %v, want the port's %v", v, a.Stats().TxStartupS)
	}
	if c := counters(idle); len(c) != 0 {
		t.Fatalf("an idle port reports %v", c)
	}
	gauges := reg.Snapshot().Gauges
	if len(gauges) != 1 || gauges[0].Name != "serial_pending_depth" || gauges[0].Node != "b" || gauges[0].Value != 0 {
		t.Fatalf("gauges %+v, want serial_pending_depth{b} = 0", gauges)
	}
}

// TestPendingFIFOUnderMatchAndWithdraw: the pending FIFO keeps posting
// order when a matching receive takes an offer from its middle and when
// a sender withdraws, and Pending counts live offers only.
func TestPendingFIFOUnderMatchAndWithdraw(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	c := net.Port("c")
	offer := func(from string, msg Message, deadline sim.Time) {
		run(k, 0, send(net.Port(from), c, msg, TxOpts{Deadline: deadline}, nil))
	}
	offer("a", Message{Kind: KindFrame, Frame: 1, KB: 1}, 0)
	offer("w", Message{Kind: KindFrame, Frame: 9, KB: 1}, 0.5) // withdraws
	offer("b", Message{Kind: KindAck, Frame: 1}, 0)
	offer("d", Message{Kind: KindFrame, Frame: 2, KB: 1}, 0)
	k.RunUntil(0.1)
	if c.Pending() != 4 {
		t.Fatalf("pending = %d, want 4", c.Pending())
	}
	var got []Message
	var pendingAfterAck int
	keep := func(m Message, err error) {
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		got = append(got, m)
	}
	run(k, 1,
		recv(c, RxOpts{Accept: KindsOf(KindAck)}, func(m Message, err error) {
			keep(m, err)
			pendingAfterAck = c.Pending()
		}),
		recv(c, RxOpts{}, keep),
		recv(c, RxOpts{}, keep))
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
		from := net.Port(fmt.Sprintf("f%02d", i))
		run(k, 0, send(from, c, Message{Kind: KindFrame, Frame: i, KB: 0.1}, TxOpts{}, nil))
	}
	for i, at := range []sim.Time{1, 1, 2} {
		from := net.Port(fmt.Sprintf("i%d", i))
		run(k, at, send(from, c, Message{Kind: KindInter, Frame: i, KB: 0.1}, TxOpts{}, nil))
	}
	var inter, frames []int
	var pendingAfterInter int
	var script []step
	for i := range 3 {
		script = append(script, recv(c, RxOpts{Accept: KindsOf(KindInter, KindCtrl)}, func(m Message, err error) {
			if err != nil {
				t.Errorf("inter: %v", err)
			}
			inter = append(inter, m.Frame)
			if i == 2 {
				pendingAfterInter = c.Pending()
			}
		}))
	}
	for range backlog {
		script = append(script, recv(c, RxOpts{Accept: KindsOf(KindFrame)}, func(m Message, err error) {
			if err != nil {
				t.Errorf("frame: %v", err)
			}
			frames = append(frames, m.Frame)
		}))
	}
	run(k, 0, script...)
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

// TestInPlaceResetsCoverEveryField: Send and SendReliable (through
// begin and attempt) and Recv reset a reused Tx, its offer and an Rx
// field by field instead of assigning a fresh literal. A field added
// to one of them must be reset there too; these counts fail until the
// reset and the count are updated together.
func TestInPlaceResetsCoverEveryField(t *testing.T) {
	for _, c := range []struct {
		v    any
		want int
	}{{Tx{}, 12}, {offer{}, 7}, {Rx{}, 10}} {
		if got := reflect.TypeOf(c.v).NumField(); got != c.want {
			t.Errorf("%T has %d fields, its in-place reset covers %d", c.v, got, c.want)
		}
	}
}
