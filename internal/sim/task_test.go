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
			err := p.Await("script", "")
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
