package serial

import (
	"errors"
	"math"
	"testing"

	"dvsim/internal/sim"
)

// scriptedFaults fails transfers according to a fixed verdict list,
// one per transfer in order, then delivers everything.
type scriptedFaults struct {
	verdicts []FaultVerdict
	n        int
}

func (s *scriptedFaults) Transfer(now sim.Time, from, to string, msg Message) FaultVerdict {
	if s.n >= len(s.verdicts) {
		return FaultNone
	}
	v := s.verdicts[s.n]
	s.n++
	return v
}

func TestBackoffGrowthAndClamp(t *testing.T) {
	rp := RetryPolicy{MaxAttempts: 5, BackoffS: 0.05, BackoffFactor: 2, MaxBackoffS: 0.15}
	want := []float64{0.05, 0.1, 0.15, 0.15}
	for i, w := range want {
		if got := rp.Backoff(i + 1); math.Abs(got-w) > 1e-12 {
			t.Fatalf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	flat := RetryPolicy{MaxAttempts: 3, BackoffS: 0.2}
	if flat.Backoff(1) != 0.2 || flat.Backoff(3) != 0.2 {
		t.Fatal("factor ≤ 1 should keep the backoff constant")
	}
	if !rp.Enabled() || (RetryPolicy{MaxAttempts: 1}).Enabled() {
		t.Fatal("Enabled: want true for 5 attempts, false for 1")
	}
}

func TestSendReliableRecoversFromDrop(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	net.Fault = &scriptedFaults{verdicts: []FaultVerdict{FaultDrop}}
	a, b := net.Port("a"), net.Port("b")
	rp := RetryPolicy{MaxAttempts: 3, BackoffS: 0.05}

	var sendErr error
	var sendDone sim.Time
	run(k, 0, sendReliable(a, b, Message{Kind: KindInter, KB: 1, Frame: 3}, TxOpts{}, rp, func(err error) {
		sendErr, sendDone = err, k.Now()
	}))
	var got Message
	var aborts int
	run(k, 0, recv(b, RxOpts{OnAbort: func() { aborts++ }}, func(m Message, err error) {
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		got = m
	}))
	k.Run()

	if sendErr != nil {
		t.Fatalf("send: %v", sendErr)
	}
	if got.Frame != 3 {
		t.Fatalf("received %+v, want the retransmitted frame 3", got)
	}
	// Both attempts pay full wire time, separated by the backoff.
	wire := net.Params.TxTime(1)
	want := sim.Time(wire + 0.05 + wire)
	if math.Abs(float64(sendDone-want)) > 1e-9 {
		t.Fatalf("send completed at %v, want %v (2 wires + backoff)", sendDone, want)
	}
	as, bs := a.Stats(), b.Stats()
	if as.TxDropped != 1 || as.TxRetries != 1 || as.TxGiveUps != 0 {
		t.Fatalf("sender stats %+v", as)
	}
	if bs.RxDropped != 1 || bs.RxTransfers != 1 || aborts != 1 {
		t.Fatalf("receiver stats %+v (aborts %d)", bs, aborts)
	}
}

func TestSendReliableGarbleDiscardedByReceiver(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	net.Fault = &scriptedFaults{verdicts: []FaultVerdict{FaultGarble}}
	a, b := net.Port("a"), net.Port("b")
	run(k, 0, sendReliable(a, b, Message{KB: 0.5}, TxOpts{}, DefaultRetryPolicy(), func(err error) {
		if err != nil {
			t.Errorf("send: %v", err)
		}
	}))
	run(k, 0, recv(b, RxOpts{}, func(_ Message, err error) {
		if err != nil {
			t.Errorf("recv: %v", err)
		}
	}))
	k.Run()
	if as := a.Stats(); as.TxGarbled != 1 || as.TxRetries != 1 {
		t.Fatalf("sender stats %+v", as)
	}
	if bs := b.Stats(); bs.RxGarbled != 1 || bs.RxTransfers != 1 {
		t.Fatalf("receiver stats %+v", bs)
	}
}

func TestSendReliableExhaustsBudget(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	net.Fault = &scriptedFaults{verdicts: []FaultVerdict{FaultDrop, FaultGarble, FaultDrop, FaultDrop}}
	var retries []RetryEvent
	net.OnRetry = func(ev RetryEvent) { retries = append(retries, ev) }
	a, b := net.Port("a"), net.Port("b")
	rp := RetryPolicy{MaxAttempts: 3, BackoffS: 0.05, BackoffFactor: 2}

	var sendErr error
	var backoffs int
	run(k, 0, sendReliable(a, b, Message{Kind: KindResult, KB: 0.1, Frame: 9},
		TxOpts{OnBackoff: func() { backoffs++ }}, rp, func(err error) { sendErr = err }))
	// The receiver sees three aborted deliveries and keeps waiting.
	run(k, 0, recv(b, RxOpts{Deadline: 10}, nil))
	k.Run()

	if !errors.Is(sendErr, ErrRetriesExhausted) {
		t.Fatalf("send err = %v, want ErrRetriesExhausted", sendErr)
	}
	if !errors.Is(sendErr, ErrDropped) || !IsFault(sendErr) {
		t.Fatalf("exhaustion should wrap the final attempt's fault: %v", sendErr)
	}
	if as := a.Stats(); as.TxRetries != 2 || as.TxGiveUps != 1 || as.TxDropped != 2 || as.TxGarbled != 1 {
		t.Fatalf("sender stats %+v", as)
	}
	if backoffs != 2 || len(retries) != 2 {
		t.Fatalf("%d backoffs, %d retry events, want 2 each", backoffs, len(retries))
	}
	if retries[0].Attempt != 1 || retries[0].Cause != FaultDrop || retries[0].BackoffS != 0.05 ||
		retries[1].Attempt != 2 || retries[1].Cause != FaultGarble || retries[1].BackoffS != 0.1 {
		t.Fatalf("retry events %+v", retries)
	}
	if retries[0].From != "a" || retries[0].To != "b" || retries[0].Frame != 9 || retries[0].Kind != KindResult {
		t.Fatalf("retry event %+v", retries[0])
	}
}

func TestSendReliableNonFaultErrorPropagates(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	net.Fault = &scriptedFaults{verdicts: []FaultVerdict{FaultDrop, FaultDrop}}
	a, b := net.Port("a"), net.Port("b")
	var err error
	// No receiver: the rendezvous times out. Timeouts are not wire
	// faults; SendReliable must not burn budget on them.
	run(k, 0, sendReliable(a, b, Message{KB: 1}, TxOpts{Deadline: 2}, RetryPolicy{MaxAttempts: 4, BackoffS: 0.1},
		func(e error) { err = e }))
	k.Run()
	if !errors.Is(err, sim.ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	if as := a.Stats(); as.TxRetries != 0 || as.TxGiveUps != 0 {
		t.Fatalf("stats %+v: timeout must not count as a retry", as)
	}
}

func TestSendReliableZeroPolicyFailsFast(t *testing.T) {
	k := sim.NewKernel()
	net := NewNetwork(k, DefaultLink())
	net.Fault = &scriptedFaults{verdicts: []FaultVerdict{FaultDrop}}
	a, b := net.Port("a"), net.Port("b")
	var err error
	run(k, 0, sendReliable(a, b, Message{KB: 1}, TxOpts{}, RetryPolicy{}, func(e error) { err = e }))
	run(k, 0, recv(b, RxOpts{Deadline: 5}, nil))
	k.Run()
	if !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, ErrDropped) {
		t.Fatalf("err = %v", err)
	}
	if as := a.Stats(); as.TxRetries != 0 || as.TxGiveUps != 1 {
		t.Fatalf("stats %+v: zero policy allows exactly one attempt", as)
	}
}
