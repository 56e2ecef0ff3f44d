package sim

// Resumer is a Task's owner: the state machine the task continues when
// it starts and whenever one of its blocking episodes ends.
type Resumer interface {
	// Resume continues the owner. err is nil for the start event and
	// for a normal wake; otherwise it is the episode's error —
	// ErrTimeout at a Block deadline, ErrInterrupted, or whatever error
	// the wake source delivered.
	Resume(err error)
}

// Task is the blocking-episode protocol of one simulated activity,
// without a goroutine. The owner opens an episode (WaitUntil or Block),
// returns to the kernel, and is resumed through Resumer.Resume when the
// episode ends: at its deadline, on a Wake from a signal source, or on
// Interrupt. Every ending is routed through the event queue, so wake
// order is fixed by schedule order alone; a Proc runs on exactly the
// same protocol, so a callback state machine and a blocking process
// produce the same event schedule.
//
// A Task allocates nothing per episode: its deadline reuses one
// embedded Event, and its wakeups are scheduled as the Task's own
// handler types. Embed it by value and call Init once.
type Task struct {
	k     *Kernel
	owner Resumer

	// seq numbers blocking episodes; armed is true from the episode's
	// start until its wake is claimed. Together they make every wake
	// source one-shot: deliver(seq, …) is a no-op unless seq names the
	// current episode.
	seq   uint64
	armed bool
	// starting marks the episode between Start and the start event.
	starting bool
	// timedOut records that the current episode's wake was claimed by
	// its deadline: a waiter that gave up, which signal sources skip.
	timedOut bool
	// timerSet marks an episode with an armed deadline; the resume
	// cancels it.
	timerSet bool
	done     bool
	// err carries the wake error from deliver to the resume event.
	err error

	// timer is the task's reusable start and deadline event: a task
	// runs one blocking episode at a time, so one handle serves them
	// all. timerSeq/timerErr are the episode and error it delivers.
	timer    Event
	timerSeq uint64
	timerErr error
}

// Init binds the task to kernel k and its owner. The task is idle until
// Start.
func (t *Task) Init(k *Kernel, owner Resumer) {
	t.k, t.owner, t.done = k, owner, true
}

// Start queues the task's start event at absolute time at ≥ Now; the
// owner is resumed (with a nil error) when it fires. An Interrupt before
// then resumes the owner at once with ErrInterrupted instead, as a
// process killed before it ever ran.
func (t *Task) Start(at Time) {
	t.done = false
	t.seq++
	t.armed, t.starting, t.timedOut = true, true, false
	t.timer.h = (*taskStart)(t)
	t.k.Reschedule(&t.timer, at)
}

// Exit ends the task: later wakes and interrupts are no-ops until the
// next Start.
func (t *Task) Exit() {
	t.done = true
	t.armed = false
}

// WaitUntil opens an episode that ends at absolute time at (clamped to
// Now: even a zero wait yields once, so pending same-instant events run
// in schedule order). The owner resumes with nil, or ErrInterrupted.
func (t *Task) WaitUntil(at Time) {
	if at < t.k.now {
		at = t.k.now
	}
	t.armTimer(t.block(), at, nil)
}

// Block opens an episode ended by a Wake for the returned epoch, by
// Interrupt, or — when deadline < Infinity — by ErrTimeout at deadline.
// The signal source holding the epoch passes it back to Wake.
func (t *Task) Block(deadline Time) uint64 {
	seq := t.block()
	if deadline < Infinity {
		t.armTimer(seq, deadline, ErrTimeout)
	}
	return seq
}

// Wake ends episode seq with err. Exactly one wake per episode wins; the
// rest are no-ops. It reports whether the wake was consumed: false means
// the task had already given up (a stale episode, or a same-instant
// timeout), so a signal source may pass the wake to another waiter.
func (t *Task) Wake(seq uint64, err error) bool { return t.deliver(seq, err) }

// Interrupt ends the task's current episode with ErrInterrupted. If the
// task is running (its wake already claimed, or inside its own
// continuation), a same-instant one-shot delivers the interrupt to the
// episode open when it fires; a done task ignores it.
func (t *Task) Interrupt() {
	if t.done {
		return
	}
	if t.armed {
		t.deliver(t.seq, ErrInterrupted)
		return
	}
	t.k.post((*taskShot)(t))
}

// block opens a new episode and returns its epoch.
func (t *Task) block() uint64 {
	t.seq++
	t.armed = true
	t.timedOut = false
	return t.seq
}

// armTimer schedules episode seq's deadline on the reusable timer event;
// on expiry that episode (and only it) is woken with err.
func (t *Task) armTimer(seq uint64, at Time, err error) {
	t.timerSeq = seq
	t.timerErr = err
	t.timerSet = true
	t.timer.h = (*taskTimer)(t)
	t.k.Reschedule(&t.timer, at)
}

// deliver is Wake: claim episode seq and route the resume through the
// event queue.
func (t *Task) deliver(seq uint64, err error) bool {
	if t.seq != seq {
		return false
	}
	if !t.armed {
		// Already woken this episode. A timeout means the waiter gave up
		// (skip it); any other wake is consumed — the resuming owner is
		// responsible for passing the signal on.
		return !t.timedOut
	}
	t.armed = false
	t.timedOut = false
	if t.starting {
		// Unwinding a task that never started: drop the pending start
		// event and resume directly (a shutdown may run when no further
		// events are allowed to fire).
		t.starting = false
		t.k.Cancel(&t.timer)
		t.owner.Resume(err)
		return true
	}
	t.err = err
	t.k.post((*taskWake)(t))
	return true
}

// The task's continuations, as handler types over the Task itself.
type (
	taskStart Task // the start event
	taskTimer Task // the episode deadline
	taskWake  Task // the resume of a claimed episode
	taskShot  Task // Interrupt's one-shot on a running task
)

func (s *taskStart) fire() {
	t := (*Task)(s)
	if !t.armed || !t.starting {
		return
	}
	t.armed, t.starting = false, false
	t.owner.Resume(nil)
}

func (tm *taskTimer) fire() {
	t := (*Task)(tm)
	if t.deliver(t.timerSeq, t.timerErr) {
		t.timedOut = true
	}
}

func (w *taskWake) fire() {
	t := (*Task)(w)
	err := t.err
	t.err = nil
	if t.timerSet {
		t.timerSet = false
		t.k.Cancel(&t.timer)
	}
	t.owner.Resume(err)
}

func (s *taskShot) fire() {
	t := (*Task)(s)
	if t.done || !t.armed {
		return
	}
	t.deliver(t.seq, ErrInterrupted)
}
