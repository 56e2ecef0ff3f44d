package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
	if !k.Idle() {
		t.Fatal("new kernel not idle")
	}
}

func TestEventFiresAtScheduledTime(t *testing.T) {
	k := NewKernel()
	var at Time = -1
	k.At(3.5, func() { at = k.Now() })
	k.Run()
	if at != 3.5 {
		t.Fatalf("event fired at %v, want 3.5", at)
	}
	if k.Now() != 3.5 {
		t.Fatalf("clock = %v, want 3.5", k.Now())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	k := NewKernel()
	var times []Time
	k.At(2, func() {
		k.After(1.5, func() { times = append(times, k.Now()) })
	})
	k.Run()
	if len(times) != 1 || times[0] != 3.5 {
		t.Fatalf("times = %v, want [3.5]", times)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(5, func() { order = append(order, 3) })
	k.At(1, func() { order = append(order, 1) })
	k.At(3, func() { order = append(order, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(1, func() { order = append(order, i) })
	}
	k.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-time events fired out of schedule order: %v", order)
		}
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.At(1, func() { fired = true })
	k.Cancel(e)
	k.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	k := NewKernel()
	e := k.At(1, func() {})
	k.Cancel(e)
	k.Cancel(e)
	k.Cancel(nil)
	k.Run()
}

func TestCancelFromInsideEarlierEvent(t *testing.T) {
	k := NewKernel()
	fired := false
	var e *Event
	k.At(1, func() { k.Cancel(e) })
	e = k.At(2, func() { fired = true })
	k.Run()
	if fired {
		t.Fatal("event canceled at t=1 still fired at t=2")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(1, func() {})
	})
	k.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	k.After(-1, func() {})
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, tt := range []Time{1, 2, 3, 4} {
		tt := tt
		k.At(tt, func() { fired = append(fired, tt) })
	}
	k.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1 and 2 only", fired)
	}
	if k.Now() != 2.5 {
		t.Fatalf("clock = %v, want 2.5", k.Now())
	}
	k.Run()
	if len(fired) != 4 {
		t.Fatalf("resumed run fired %v, want all 4", fired)
	}
}

func TestRunUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	k := NewKernel()
	k.RunUntil(10)
	if k.Now() != 10 {
		t.Fatalf("clock = %v, want 10", k.Now())
	}
}

func TestStopHaltsRun(t *testing.T) {
	k := NewKernel()
	n := 0
	k.At(1, func() { n++; k.Stop() })
	k.At(2, func() { n++ })
	k.Run()
	if n != 1 {
		t.Fatalf("fired %d events, want 1 (Stop should halt)", n)
	}
	if k.Now() != 1 {
		t.Fatalf("clock = %v, want 1", k.Now())
	}
}

func TestEventLimitPanics(t *testing.T) {
	k := NewKernel()
	k.SetEventLimit(10)
	var loop func()
	loop = func() { k.After(1, loop) }
	k.At(0, loop)
	defer func() {
		if recover() == nil {
			t.Error("event limit exceeded without panic")
		}
	}()
	k.Run()
}

func TestNextEventTime(t *testing.T) {
	k := NewKernel()
	if k.NextEventTime() != Infinity {
		t.Fatal("empty queue should report Infinity")
	}
	e := k.At(7, func() {})
	k.At(9, func() {})
	if got := k.NextEventTime(); got != 7 {
		t.Fatalf("NextEventTime = %v, want 7", got)
	}
	k.Cancel(e)
	if got := k.NextEventTime(); got != 9 {
		t.Fatalf("NextEventTime after cancel = %v, want 9", got)
	}
}

func TestFiredCounts(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 5; i++ {
		k.At(Time(i), func() {})
	}
	k.Run()
	if k.Fired() != 5 {
		t.Fatalf("Fired = %d, want 5", k.Fired())
	}
}

// Property: for any set of event times, the kernel fires them in
// nondecreasing time order and the clock never goes backwards.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		k := NewKernel()
		var fired []Time
		for _, r := range raw {
			tt := Time(r) / 16
			k.At(tt, func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		if len(fired) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: same-instant events fire in schedule order even when
// interleaved with events at other times.
func TestPropertySameInstantFIFO(t *testing.T) {
	f := func(raw []uint8) bool {
		k := NewKernel()
		type mark struct {
			t   Time
			seq int
		}
		var fired []mark
		for i, r := range raw {
			tt := Time(r % 4) // heavy collisions
			i := i
			k.At(tt, func() { fired = append(fired, mark{tt, i}) })
		}
		k.Run()
		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			if a.t > b.t {
				return false
			}
			if a.t == b.t && a.seq > b.seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: runs are deterministic — two kernels fed the same schedule
// produce identical firing sequences.
func TestPropertyDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		var fired []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			if depth > 3 {
				return
			}
			n := rng.Intn(3) + 1
			for i := 0; i < n; i++ {
				d := Duration(rng.Intn(100)) / 10
				k.After(d, func() {
					fired = append(fired, k.Now())
					spawn(depth + 1)
				})
			}
		}
		k.At(0, func() { spawn(0) })
		k.Run()
		return fired
	}
	for seed := int64(0); seed < 5; seed++ {
		a := run(seed)
		b := run(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: lengths differ: %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: firing %d differs: %v vs %v", seed, i, a[i], b[i])
			}
		}
	}
}

func TestCancelCheckStopsRun(t *testing.T) {
	k := NewKernel()
	fired := 0
	var tick func()
	ev := k.At(1, func() { fired++; tick() })
	tick = func() { k.Reschedule(ev, k.Now()+1) }
	canceled := false
	k.SetCancelCheck(1, func() bool { return canceled })
	k.RunUntil(10)
	if fired != 10 {
		t.Fatalf("uncancelled run fired %d events, want 10", fired)
	}
	canceled = true
	k.RunUntil(20)
	if fired != 11 {
		t.Fatalf("cancelled run fired %d more events, want exactly 1 (the tripping event completes)", fired-10)
	}
	// The queue is preserved: clearing the cancellation resumes the run.
	canceled = false
	k.RunUntil(20)
	if fired != 20 {
		t.Fatalf("resumed run fired %d events total, want 20", fired)
	}
}

func TestCancelCheckPolledEveryN(t *testing.T) {
	k := NewKernel()
	fired := 0
	var tick func()
	ev := k.At(1, func() { fired++; tick() })
	tick = func() { k.Reschedule(ev, k.Now()+1) }
	polls := 0
	k.SetCancelCheck(4, func() bool { polls++; return true })
	k.RunUntil(100)
	if fired != 4 {
		t.Fatalf("fired %d events before the first poll tripped, want 4", fired)
	}
	if polls != 1 {
		t.Fatalf("polled %d times, want 1", polls)
	}
	// Removing the check lets the run proceed untouched.
	k.SetCancelCheck(0, nil)
	k.RunUntil(100)
	if fired != 100 {
		t.Fatalf("fired %d events after removing the check, want 100", fired)
	}
}
