package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// taskScript is one scenario driven through a Task's episodes: a timed
// wait, a signal wake before its deadline, a deadline expiry, an
// interrupt the task raises inside its own continuation (delivered by
// the same-instant one-shot), and an interrupt from an event. step
// opens episode i on t and returns false when the script is over.
func taskScript(k *Kernel, t *Task, seq *uint64, i int) bool {
	switch i {
	case 0:
		t.WaitUntil(1)
	case 1:
		*seq = t.Block(5)
		k.At(2, func() { t.Wake(*seq, nil) })
	case 2:
		t.Block(3)
	case 3:
		t.Interrupt()
		t.WaitUntil(10)
	case 4:
		k.At(3.5, t.Interrupt)
		t.WaitUntil(4)
	default:
		return false
	}
	return true
}

// scriptTask runs taskScript as a callback state machine.
type scriptTask struct {
	k    *Kernel
	t    Task
	seq  uint64
	step int
	log  []string
}

func (s *scriptTask) Resume(err error) {
	if s.step > 0 {
		s.log = append(s.log, fmt.Sprintf("t=%v err=%v fired=%d", s.k.Now(), err, s.k.Fired()))
	}
	if !taskScript(s.k, &s.t, &s.seq, s.step) {
		s.t.Exit()
	}
	s.step++
}

// TestTaskMatchesProcSchedule: a callback state machine and a blocking
// process driving the same episodes see the same resumes at the same
// instants after the same number of kernel events — the property that
// lets the engine's state machines replace processes without moving a
// single event.
func TestTaskMatchesProcSchedule(t *testing.T) {
	kt := NewKernel()
	st := &scriptTask{k: kt}
	st.t.Init(kt, st)
	st.t.Start(0)
	kt.Run()

	kp := NewKernel()
	var plog []string
	kp.Spawn("script", func(p *Proc) {
		var seq uint64
		for i := 0; taskScript(kp, p.Task(), &seq, i); i++ {
			err := p.Await()
			plog = append(plog, fmt.Sprintf("t=%v err=%v fired=%d", kp.Now(), err, kp.Fired()))
		}
	})
	kp.Run()

	want := []string{"t=1", "t=2", "t=3", "t=3", "t=3.5"}
	if len(st.log) != len(want) {
		t.Fatalf("task resumes: %q", st.log)
	}
	for i, w := range want {
		if got := st.log[i][:len(w)+1]; got != w+" " {
			t.Errorf("resume %d at %q, want %s", i, st.log[i], w)
		}
	}
	if !reflect.DeepEqual(st.log, plog) {
		t.Fatalf("task and process diverge:\ntask %q\nproc %q", st.log, plog)
	}
	if kt.Fired() != kp.Fired() {
		t.Fatalf("task fired %d events, process %d", kt.Fired(), kp.Fired())
	}
}

// TestTaskInterruptBeforeStart: an interrupt before the start event
// resumes the owner at once with ErrInterrupted and drops the start.
func TestTaskInterruptBeforeStart(t *testing.T) {
	k := NewKernel()
	st := &scriptTask{k: k}
	st.t.Init(k, st)
	var got error
	st.t.Start(1)
	st.t.owner = resumeFunc(func(err error) { got = err; st.t.Exit() })
	st.t.Interrupt()
	if !errors.Is(got, ErrInterrupted) || !st.t.done {
		t.Fatalf("resumed with %v, done %v", got, st.t.done)
	}
	k.Run()
	if k.Fired() != 0 {
		t.Fatalf("the dropped start event fired (%d events)", k.Fired())
	}
}

type resumeFunc func(error)

func (f resumeFunc) Resume(err error) { f(err) }

// taskFunc builds a task on k whose owner is fn.
func taskFunc(k *Kernel, fn func(t *Task, err error)) *Task {
	t := new(Task)
	t.Init(k, resumeFunc(func(err error) { fn(t, err) }))
	return t
}

// TestWaitZeroYieldsToSameTimeEvents: a task's wait that ends now
// still yields, so an event already queued at this instant runs before
// the task resumes.
func TestWaitZeroYieldsToSameTimeEvents(t *testing.T) {
	k := NewKernel()
	var order []string
	taskFunc(k, func(t *Task, err error) {
		if len(order) == 0 {
			order = append(order, "t1")
			t.WaitUntil(k.Now())
			return
		}
		order = append(order, "t2")
		t.Exit()
	}).Start(0)
	k.At(0, func() { order = append(order, "event") })
	k.Run()
	// The start event precedes the bare event; the wait's deadline
	// follows it.
	if want := []string{"t1", "event", "t2"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestWaitUntilPastReturnsPromptly: a task's wait on a past instant
// ends at once, without error and without moving the clock back.
func TestWaitUntilPastReturnsPromptly(t *testing.T) {
	k := NewKernel()
	var at []Time
	taskFunc(k, func(t *Task, err error) {
		if err != nil {
			t.Exit()
			return
		}
		at = append(at, k.Now())
		switch len(at) {
		case 1:
			t.WaitUntil(5)
		case 2:
			t.WaitUntil(1) // already past
		default:
			t.Exit()
		}
	}).Start(0)
	k.Run()
	if want := []Time{0, 5, 5}; !reflect.DeepEqual(at, want) {
		t.Fatalf("resumed at %v, want %v", at, want)
	}
}

// TestInterruptAfterDoneIsNoop: a task that has exited ignores an
// interrupt: no resume, no queued one-shot.
func TestInterruptAfterDoneIsNoop(t *testing.T) {
	k := NewKernel()
	resumes := 0
	task := taskFunc(k, func(t *Task, err error) {
		resumes++
		t.Exit()
	})
	task.Start(0)
	k.At(1, task.Interrupt)
	k.Run()
	if resumes != 1 || k.Fired() != 2 {
		t.Fatalf("%d resumes, %d events fired; want 1 resume and 2 events", resumes, k.Fired())
	}
}

// TestInterruptWakesWaiter: an interrupt ends a task's timed wait
// early, resuming it with ErrInterrupted at the interrupt's instant.
func TestInterruptWakesWaiter(t *testing.T) {
	k := NewKernel()
	var gotErr error
	var gotAt Time
	waiting := false
	task := taskFunc(k, func(t *Task, err error) {
		if !waiting {
			waiting = true
			t.WaitUntil(100)
			return
		}
		gotErr, gotAt = err, k.Now()
		t.Exit()
	})
	task.Start(0)
	k.At(5, task.Interrupt)
	k.Run()
	if !errors.Is(gotErr, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", gotErr)
	}
	if gotAt != 5 {
		t.Fatalf("woke at %v, want 5", gotAt)
	}
}

// wakeSource is a minimal signal source over Block/Wake, in the shape
// of a serial port or a channel: it wakes its waiters in the order
// they blocked, passing a wake on past any that gave up.
type wakeSource struct {
	waiters []waiterRef
}

func (w *wakeSource) block(t *Task, deadline Time) {
	w.waiters = append(w.waiters, waiterRef{t: t, seq: t.Block(deadline)})
}

func (w *wakeSource) signal() {
	for len(w.waiters) > 0 {
		r := w.waiters[0]
		w.waiters = w.waiters[1:]
		if r.t.Wake(r.seq, nil) {
			return
		}
	}
}

// TestTaskTimedOutWaiterDoesNotAbsorbLaterWake: once a waiter's
// deadline claims its episode, a wake for that episode reports false,
// so the source hands it to the next live waiter.
func TestTaskTimedOutWaiterDoesNotAbsorbLaterWake(t *testing.T) {
	k := NewKernel()
	src := &wakeSource{}
	type outcome struct {
		at  Time
		err error
	}
	waiter := func(out *outcome, deadline Time) *Task {
		blocked := false
		return taskFunc(k, func(t *Task, err error) {
			if !blocked {
				blocked = true
				src.block(t, deadline)
				return
			}
			*out = outcome{k.Now(), err}
			t.Exit()
		})
	}
	var timid, patient outcome
	waiter(&timid, 1).Start(0)
	waiter(&patient, Infinity).Start(0)
	k.At(2, src.signal)
	k.Run()
	if timid.at != 1 || !errors.Is(timid.err, ErrTimeout) {
		t.Fatalf("timid waiter resumed %+v, want a timeout at 1", timid)
	}
	if patient != (outcome{2, nil}) {
		t.Fatalf("patient waiter resumed %+v, want the wake at 2", patient)
	}
}

// TestTaskSameInstantWakeBeatsDeadline: a wake scheduled before a
// deadline's timer at the same instant wins the episode: the order of
// the schedule decides, deterministically.
func TestTaskSameInstantWakeBeatsDeadline(t *testing.T) {
	k := NewKernel()
	var seq uint64
	var got []error
	task := taskFunc(k, func(t *Task, err error) {
		if got = append(got, err); len(got) == 1 {
			seq = t.Block(1)
			return
		}
		t.Exit()
	})
	k.At(1, func() { task.Wake(seq, nil) }) // queued before the deadline
	task.Start(0)
	k.Run()
	if len(got) != 2 || got[1] != nil || k.Now() != 1 {
		t.Fatalf("resumed with %v at %v, want a clean wake at 1", got, k.Now())
	}
}

// TestTasksInterleaveDeterministically: two tasks with equal waits
// resume in the order they were started at every instant.
func TestTasksInterleaveDeterministically(t *testing.T) {
	k := NewKernel()
	var order []string
	ticker := func(name string) *Task {
		n := 0
		return taskFunc(k, func(t *Task, err error) {
			if n > 0 {
				order = append(order, name)
			}
			if n++; n > 3 {
				t.Exit()
				return
			}
			t.WaitUntil(k.Now() + 1)
		})
	}
	ticker("a").Start(0)
	ticker("b").Start(0)
	k.Run()
	if want := []string{"a", "b", "a", "b", "a", "b"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}
