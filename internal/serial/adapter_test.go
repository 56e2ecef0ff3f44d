package serial

import (
	"testing"

	"dvsim/internal/sim"
)

// adapterRun is one transfer of msg from a to b after the sender waits
// a second: the completion instants of both sides, and the events fired.
type adapterRun struct {
	sent, got sim.Time
	msg       Message
	fired     uint64
}

// taskTransfer runs the transfer with both sides on tasks, the path the
// simulator takes.
func taskTransfer(msg Message) adapterRun {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	a, b := net.Port("a"), net.Port("b")
	var r adapterRun
	run(k, 0, wait(1), send(a, b, msg, TxOpts{}, func(error) { r.sent = k.Now() }))
	run(k, 0, recv(b, RxOpts{}, func(m Message, _ error) { r.msg, r.got = m, k.Now() }))
	k.Run()
	r.fired = k.Fired()
	return r
}

// TestPortSendAdapterMatchesTx: a process sending through Port.Send
// completes at the same instants, after the same events, as a sender
// driving Tx on a task.
func TestPortSendAdapterMatchesTx(t *testing.T) {
	msg := Message{Kind: KindInter, KB: 0.6, Frame: 7}
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	a, b := net.Port("a"), net.Port("b")
	var r adapterRun
	k.Spawn("sender", func(p *sim.Proc) {
		p.Wait(1)
		if err := a.Send(p, b, msg); err != nil {
			t.Errorf("send: %v", err)
		}
		r.sent = k.Now()
	})
	run(k, 0, recv(b, RxOpts{}, func(m Message, _ error) { r.msg, r.got = m, k.Now() }))
	k.Run()
	r.fired = k.Fired()
	if want := taskTransfer(msg); r != want {
		t.Fatalf("Port.Send run %+v, task run %+v", r, want)
	}
}

// TestPortRecvAdapterMatchesRx: a process receiving through Port.Recv
// completes at the same instants, after the same events, as a receiver
// driving Rx on a task.
func TestPortRecvAdapterMatchesRx(t *testing.T) {
	msg := Message{Kind: KindInter, KB: 0.6, Frame: 7}
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	a, b := net.Port("a"), net.Port("b")
	var r adapterRun
	run(k, 0, wait(1), send(a, b, msg, TxOpts{}, func(error) { r.sent = k.Now() }))
	k.Spawn("receiver", func(p *sim.Proc) {
		m, err := b.Recv(p)
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		r.msg, r.got = m, k.Now()
	})
	k.Run()
	r.fired = k.Fired()
	if want := taskTransfer(msg); r != want {
		t.Fatalf("Port.Recv run %+v, task run %+v", r, want)
	}
}
