package sim

import (
	"errors"
	"fmt"
)

// Errors returned from blocking process operations.
var (
	// ErrInterrupted is returned when another process interrupts a wait.
	ErrInterrupted = errors.New("sim: interrupted")
	// ErrShutdown is returned from blocking calls when the kernel shuts
	// the process down (queue drained or explicit Kill).
	ErrShutdown = errors.New("sim: shutdown")
	// ErrTimeout is returned by timed operations that expire.
	ErrTimeout = errors.New("sim: timeout")
	// ErrClosed is returned by operations on a closed channel.
	ErrClosed = errors.New("sim: channel closed")
)

// killed is the panic payload used to unwind a process being shut down.
type killed struct{ err error }

// killedShutdown is the pre-boxed shutdown payload. Shutdown unwinds
// every live process, so boxing a fresh value per panic would cost one
// allocation per parked goroutine.
var killedShutdown any = &killed{err: ErrShutdown}

// waiterRef identifies one blocking episode of a task: the epoch seq
// only matches while the task is still blocked in the episode that
// registered the reference, so stale refs are harmless.
type waiterRef struct {
	t   *Task
	seq uint64
}

// ProcState describes what a process is doing, for traces.
type ProcState int

// Process states reported to tracers.
const (
	StateCreated ProcState = iota
	StateRunning
	StateBlocked
	StateDone
)

func (s ProcState) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("ProcState(%d)", int(s))
	}
}

// Proc is a simulation process: sequential code running on its own
// goroutine under the kernel's strict handoff discipline. At any instant
// at most one process (or event callback) executes; all others are parked.
//
// A Proc is a Task whose owner is a goroutine: its blocking operations
// open an episode on the task, park the goroutine, and continue where
// the task's resume hands control back. Process bodies receive the Proc
// and use its blocking operations (Wait, WaitUntil, and the channel and
// resource operations in this package). Blocking operations return an
// error when the process is interrupted or the kernel shuts down; bodies
// should propagate such errors and return.
type Proc struct {
	t    Task
	id   uint64
	name string

	wake   chan error    // kernel -> proc: resume with the wake error
	parked chan struct{} // proc -> kernel: parked or finished

	// blockedOp/blockedObj name the blocking call (e.g. "Recv", "data0")
	// for deadlock diagnostics, without building the combined string on
	// the hot path.
	blockedOp  string
	blockedObj string

	killErr error
	state   ProcState

	// joiners are woken when the process finishes.
	joiners []waiterRef
}

// procResumer is a Proc as its task's owner: a resume hands control to
// the goroutine.
type procResumer Proc

func (r *procResumer) Resume(err error) { (*Proc)(r).resume(err) }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.t.k }

// Task returns the process's task, on which blocking operations built
// outside this package open their episodes before parking with Await.
func (p *Proc) Task() *Task { return &p.t }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.t.k.now }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.t.done }

// Err returns the error the process was terminated with, if any.
func (p *Proc) Err() error { return p.killErr }

func newProc(k *Kernel, name string) *Proc {
	p := &Proc{
		name:   name,
		wake:   make(chan error),
		parked: make(chan struct{}),
		state:  StateCreated,
	}
	p.t.Init(k, (*procResumer)(p))
	return p
}

// Spawn starts a new process at the current simulated time. The body fn
// begins executing when the kernel reaches the start event; Spawn itself
// returns immediately.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.SpawnAt(k.now, name, fn)
}

// SpawnAt starts a new process at absolute time t ≥ Now.
func (k *Kernel) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	p := newProc(k, name)
	k.procs[p] = struct{}{}
	go p.run(fn)
	// The start event takes the kernel's next sequence number, which is
	// the process id, preserving spawn-order determinism.
	p.id = k.seq
	p.t.Start(t)
	k.trace(p, StateCreated, "spawn")
	return p
}

// run is the goroutine body: wait for the initial resume, execute fn,
// then signal completion.
func (p *Proc) run(fn func(p *Proc)) {
	if err := <-p.wake; err != nil {
		// Killed before it ever ran.
		p.killErr = err
		p.finish()
		return
	}
	defer func() {
		if r := recover(); r != nil {
			if kd, ok := r.(*killed); ok {
				p.killErr = kd.err
				p.finish()
				return
			}
			// Record the panic, return control to the kernel, then crash:
			// dying silently on a detached goroutine would hang the kernel.
			p.killErr = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
			p.finish()
			panic(r)
		}
		p.finish()
	}()
	p.setState(StateRunning, "start")
	fn(p)
}

// finish marks the process done, wakes joiners and returns control to
// the kernel.
func (p *Proc) finish() {
	p.t.Exit()
	p.setState(StateDone, "done")
	delete(p.t.k.procs, p)
	for _, j := range p.joiners {
		j.t.deliver(j.seq, nil)
	}
	p.joiners = p.joiners[:0]
	p.parked <- struct{}{}
}

// resume hands control to the process and blocks until it parks again or
// finishes. Must be called from kernel context (an event callback).
func (p *Proc) resume(err error) {
	p.wake <- err
	<-p.parked
}

// blockBegin names the blocking call and opens a new episode on the
// task, returning its epoch for wake sources.
func (p *Proc) blockBegin(op, obj string) uint64 {
	p.blockedOp, p.blockedObj = op, obj
	return p.t.block()
}

// park suspends the process until the current episode's wake arrives.
// Shutdown unwinds the process via panic(killed{...}).
func (p *Proc) park() error {
	p.state = StateBlocked
	if p.t.k.tracer != nil {
		p.t.k.tracer.ProcState(p.t.k.now, p, StateBlocked, p.blockedWhy())
	}
	p.parked <- struct{}{}
	err := <-p.wake
	p.blockedOp, p.blockedObj = "", ""
	if err != nil && errors.Is(err, ErrShutdown) {
		panic(killedShutdown)
	}
	p.setState(StateRunning, "resume")
	return err
}

// Await parks the process in the episode the caller just opened on its
// Task (Block or WaitUntil) and returns the episode's wake error. op and
// obj name the blocking call for diagnostics. It is how blocking
// adapters over callback state machines (internal/serial's Proc API)
// suspend a process.
func (p *Proc) Await(op, obj string) error {
	p.blockedOp, p.blockedObj = op, obj
	return p.park()
}

// blockedWhy renders the blocking call for diagnostics ("Recv data0").
func (p *Proc) blockedWhy() string {
	if p.blockedObj == "" {
		return p.blockedOp
	}
	return p.blockedOp + " " + p.blockedObj
}

// Wait suspends the process for d seconds of simulated time. It returns
// nil on normal expiry, or ErrInterrupted if Interrupt was called.
func (p *Proc) Wait(d Duration) error {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative wait %v", d))
	}
	return p.WaitUntil(p.t.k.now + d)
}

// WaitUntil suspends the process until absolute time t. If t ≤ Now the
// process still yields to the kernel for one instant, so pending same-time
// events run in schedule order.
func (p *Proc) WaitUntil(t Time) error {
	p.t.WaitUntil(t)
	return p.Await("Wait", "")
}

// Join blocks until other finishes (returning immediately if it already
// has). It returns ErrInterrupted if this process is interrupted first.
func (p *Proc) Join(other *Proc) error {
	if other.Done() {
		return p.Wait(0) // yield once for deterministic ordering
	}
	seq := p.blockBegin("Join", other.name)
	other.joiners = append(other.joiners, waiterRef{t: &p.t, seq: seq})
	return p.park()
}

// Interrupt wakes the process out of its current blocking call with
// ErrInterrupted. If the process is running, the interrupt is delivered
// at its next blocking call within the same instant; if it is already
// done, Interrupt is a no-op. reason documents the call site.
func (p *Proc) Interrupt(reason any) { p.t.Interrupt() }

// kill terminates a process with err (normally ErrShutdown).
func (p *Proc) kill(err error) {
	if p.t.done {
		delete(p.t.k.procs, p)
		return
	}
	if p.t.armed {
		// Deliver directly rather than via the queue: shutdown runs after
		// the queue has drained, so no more events will fire.
		p.t.armed = false
		p.killErr = err
		if p.t.starting {
			p.t.starting = false
			p.t.k.Cancel(&p.t.timer)
		}
		p.resume(err)
		return
	}
	panic(fmt.Sprintf("sim: killing process %q that is not blocked", p.name))
}

func (p *Proc) setState(s ProcState, why string) {
	p.state = s
	p.t.k.trace(p, s, why)
}

func (k *Kernel) trace(p *Proc, s ProcState, why string) {
	if k.tracer != nil {
		k.tracer.ProcState(k.now, p, s, why)
	}
}
