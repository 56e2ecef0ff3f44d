package sim

import (
	"errors"
	"fmt"
)

// killed is the panic payload that unwinds a process being shut down;
// killedShutdown is its boxed value, shared by every unwinding.
type killed struct{}

var killedShutdown any = killed{}

// Proc is a simulation process: sequential code running on its own
// goroutine under the kernel's strict handoff discipline. At any instant
// at most one process (or event callback) executes; all others are parked.
//
// A Proc is a Task whose owner is a goroutine: a blocking operation
// opens an episode on the task, parks the goroutine with Await, and
// continues where the task's resume hands control back. Nothing in the
// simulator runs on a Proc: it remains for the benchmark probe, which
// times the goroutine handoff.
type Proc struct {
	t    Task
	id   uint64
	name string

	wake   chan error    // kernel -> proc: resume with the wake error
	parked chan struct{} // proc -> kernel: parked or finished
}

// procResumer is a Proc as its task's owner: a resume hands control to
// the goroutine.
type procResumer Proc

func (r *procResumer) Resume(err error) { (*Proc)(r).resume(err) }

// Task returns the process's task, on which blocking operations built
// outside this package open their episodes before parking with Await.
func (p *Proc) Task() *Task { return &p.t }

// Spawn starts a new process at the current simulated time. The body fn
// begins executing when the kernel reaches the start event; Spawn itself
// returns immediately. name labels the process in panics.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{name: name, wake: make(chan error), parked: make(chan struct{})}
	p.t.Init(k, (*procResumer)(p))
	if k.procs == nil {
		k.procs = make(map[*Proc]struct{}) // first Spawn: Simulate never makes it
	}
	k.procs[p] = struct{}{}
	go p.run(fn)
	// The start event takes the kernel's next sequence number, which is
	// the process id, preserving spawn-order determinism.
	p.id = k.seq
	p.t.Start(k.now)
	return p
}

// run is the goroutine body: wait for the initial resume, execute fn,
// then signal completion.
func (p *Proc) run(fn func(p *Proc)) {
	if err := <-p.wake; err != nil {
		p.finish() // killed before it ever ran
		return
	}
	defer func() {
		r := recover()
		p.finish()
		if _, ok := r.(killed); r != nil && !ok {
			// Return control to the kernel first, then crash: dying
			// silently on a detached goroutine would hang the kernel.
			panic(r)
		}
	}()
	fn(p)
}

// finish marks the process done and returns control to the kernel.
func (p *Proc) finish() {
	p.t.Exit()
	delete(p.t.k.procs, p)
	p.parked <- struct{}{}
}

// resume hands control to the process and blocks until it parks again or
// finishes. Must be called from kernel context (an event callback).
func (p *Proc) resume(err error) {
	p.wake <- err
	<-p.parked
}

// Await parks the process in the episode the caller just opened on its
// Task (Block or WaitUntil) and returns the episode's wake error. It is
// how blocking adapters over callback state machines (internal/serial's
// Port.Send and Port.Recv) suspend a process. Shutdown unwinds the
// process instead of returning.
func (p *Proc) Await() error {
	p.parked <- struct{}{}
	err := <-p.wake
	if errors.Is(err, ErrShutdown) {
		panic(killedShutdown)
	}
	return err
}

// Wait suspends the process for d seconds of simulated time. Even a zero
// wait yields once, so pending same-instant events run in schedule
// order. It returns nil on normal expiry, or ErrInterrupted.
func (p *Proc) Wait(d Duration) error {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative wait %v", d))
	}
	p.t.WaitUntil(p.t.k.now + d)
	return p.Await()
}

// kill unwinds a parked process with ErrShutdown. Shutdown runs after
// the queue has drained, so the wake is delivered directly rather than
// through the queue.
func (p *Proc) kill() {
	if !p.t.armed {
		panic(fmt.Sprintf("sim: killing process %q that is not blocked", p.name))
	}
	p.t.armed = false
	if p.t.starting {
		p.t.starting = false
		p.t.k.Cancel(&p.t.timer)
	}
	p.resume(ErrShutdown)
}
