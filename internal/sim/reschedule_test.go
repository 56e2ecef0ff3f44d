package sim

import "testing"

// These tests pin down the reusable-event API (Bind + Reschedule) and
// eager removal: Cancel takes an entry out of the queue at once, and
// Reschedule of a queued handle moves its one entry, so the queue holds
// only live events and the read-only accessors are exact pure reads.

func TestRescheduleFiresOnceAtLatestTime(t *testing.T) {
	k := NewKernel()
	var fired []Time
	var e Event
	e.Bind(func() { fired = append(fired, k.Now()) })
	k.Reschedule(&e, 5)
	k.Reschedule(&e, 2) // moving a queued event moves its one entry
	k.Run()
	if len(fired) != 1 || fired[0] != 2 {
		t.Fatalf("fired = %v, want [2]", fired)
	}
}

func TestRescheduleAfterFireRearms(t *testing.T) {
	k := NewKernel()
	var fired []Time
	var e Event
	e.Bind(func() {
		fired = append(fired, k.Now())
		if len(fired) < 3 {
			k.Reschedule(&e, k.Now()+1)
		}
	})
	k.Reschedule(&e, 1)
	k.Run()
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Fatalf("fired = %v, want [1 2 3]", fired)
	}
}

func TestRescheduleRevivesCanceledEvent(t *testing.T) {
	k := NewKernel()
	fired := 0
	var e Event
	e.Bind(func() { fired++ })
	k.Reschedule(&e, 1)
	k.Cancel(&e)
	if !e.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	k.Reschedule(&e, 3)
	k.Run()
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
	if k.Now() != 3 {
		t.Fatalf("clock = %v, want 3 (revived slot must win)", k.Now())
	}
}

func TestRescheduleUnboundPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("Reschedule of an unbound event did not panic")
		}
	}()
	var e Event
	k.Reschedule(&e, 1)
}

func TestCancelRescheduleInterleaving(t *testing.T) {
	// A cancel/reschedule ping-pong across three events must fire each
	// live arming exactly once, in (time, seq) order.
	k := NewKernel()
	var order []string
	var a, b, c Event
	a.Bind(func() { order = append(order, "a") })
	b.Bind(func() { order = append(order, "b") })
	c.Bind(func() { order = append(order, "c") })
	k.Reschedule(&a, 1)
	k.Reschedule(&b, 2)
	k.Reschedule(&c, 3)
	k.Cancel(&b)        // removes the entry at t=2
	k.Reschedule(&a, 4) // moves the entry from t=1 to t=4
	k.Reschedule(&b, 1) // revived ahead of everything
	k.Run()
	want := []string{"b", "c", "a"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCancelOfTopKeepsAccessorsPure(t *testing.T) {
	k := NewKernel()
	e1 := arm(k, 1, func() {})
	k.At(2, func() {})
	k.Cancel(e1)
	// The canceled top leaves the queue at the cancel itself, so reads
	// agree immediately and repeatably.
	for i := 0; i < 3; i++ {
		if k.Idle() {
			t.Fatal("Idle() = true with a live event queued")
		}
		if got := k.NextEventTime(); got != 2 {
			t.Fatalf("NextEventTime() = %v, want 2", got)
		}
		if got := k.QueueLen(); got != 1 {
			t.Fatalf("QueueLen() = %d, want 1 (canceled entries must not count)", got)
		}
	}
	if k.Fired() != 0 {
		t.Fatalf("reads fired %d events", k.Fired())
	}
	if k.Now() != 0 {
		t.Fatalf("reads advanced the clock to %v", k.Now())
	}
}

func TestCancelAllReportsIdleWithoutRunning(t *testing.T) {
	k := NewKernel()
	events := make([]*Event, 5)
	for i := range events {
		events[i] = arm(k, Time(i+1), func() { t.Error("canceled event fired") })
	}
	for _, e := range events {
		k.Cancel(e)
	}
	for i := 0; i < 3; i++ {
		if !k.Idle() {
			t.Fatal("Idle() = false with only canceled entries")
		}
		if k.NextEventTime() != Infinity {
			t.Fatalf("NextEventTime() = %v, want Infinity", k.NextEventTime())
		}
		if k.QueueLen() != 0 {
			t.Fatalf("QueueLen() = %d, want 0", k.QueueLen())
		}
	}
	k.Run()
	if k.Fired() != 0 {
		t.Fatalf("Fired() = %d, want 0", k.Fired())
	}
}

func TestRescheduleSameInstantKeepsFIFO(t *testing.T) {
	// A rescheduled event takes a fresh sequence number: at an equal
	// timestamp it fires after everything already queued there.
	k := NewKernel()
	var order []string
	var e Event
	e.Bind(func() { order = append(order, "moved") })
	k.Reschedule(&e, 1)
	k.At(2, func() { order = append(order, "first") })
	k.Reschedule(&e, 2)
	k.At(2, func() { order = append(order, "last") })
	k.Run()
	want := []string{"first", "moved", "last"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestHeapSurvivesChurn(t *testing.T) {
	// Heavy interleaved schedule/cancel/reschedule traffic must keep
	// the live count and firing order coherent (exercises slot reuse
	// and removal from the middle of the heap under load).
	k := NewKernel()
	const n = 500
	events := make([]Event, n)
	fired := 0
	for i := range events {
		events[i].Bind(func() { fired++ })
		k.Reschedule(&events[i], Time(1+i%7))
	}
	for i := 0; i < n; i += 2 {
		k.Cancel(&events[i])
	}
	for i := 0; i < n; i += 4 {
		k.Reschedule(&events[i], Time(10+i%5))
	}
	wantLive := n/2 + (n+3)/4
	if k.QueueLen() != wantLive {
		t.Fatalf("QueueLen() = %d, want %d", k.QueueLen(), wantLive)
	}
	k.Run()
	if fired != wantLive {
		t.Fatalf("fired = %d, want %d", fired, wantLive)
	}
}
