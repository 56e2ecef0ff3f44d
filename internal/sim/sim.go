// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-breaking by sequence number), which makes every run
// of a simulation bit-for-bit reproducible.
//
// Simulated activities are callback state machines driven by a Task: a
// Task owns one reusable deadline event and a blocking-episode protocol
// (wait, wake, timeout, interrupt), and resumes its owner through a
// continuation when the episode ends. Every experiment in this
// repository — serial transactions, node frame loops, the host's frame
// source and sink, battery deaths and fault injection — runs as events
// and Tasks on a single Kernel, on the caller's goroutine.
//
// Proc layers sequential, blocking control flow over the same protocol:
// its body runs on a goroutine of its own under a strict one-runnable-
// at-a-time handoff, and Chan blocks Procs. They remain for the
// benchmark probe, which times the goroutine handoff; the simulator
// does not use them, and outside this package only the tests of
// internal/serial's two blocking adapters do. A simulation starts no
// goroutines. (internal/core encodes a large run log on
// several cores, but only after the kernel has returned.)
//
// # Performance
//
// The event queue holds only live events. Timed events sit in an inlined
// 4-ary min-heap of pointer-free value entries, and each queued entry's
// heap position is kept in its slot: Cancel removes the entry in
// O(log n), and Reschedule of a queued handle moves it in place. Pushing
// an event never allocates per schedule (beyond amortized slice growth).
// Internal wakeups (task resumes, interrupt one-shots) are handle-free
// and always at the current instant, so they skip the heap: they join a
// FIFO lane that step merges with the heap top by (time, sequence). They
// allocate nothing: a Task's continuations are named pointer types over
// the Task itself, so posting one stores an interface, never a fresh
// closure. Periodic callers reuse one Event handle through Reschedule
// instead of allocating per occurrence.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, in seconds.
type Time float64

// Duration is a span of simulated time, in seconds.
type Duration = Time

// Infinity is a time later than any schedulable event.
const Infinity Time = Time(math.MaxFloat64)

// Event is a scheduled callback handle. Its owner binds a callback once
// (Bind), arms it with Reschedule, may Cancel it before it fires, and
// reuses it for a whole series of occurrences. At and After schedule
// one-shot callbacks without exposing a handle.
type Event struct {
	t        Time
	h        handler
	slot     int32 // the kernel slot of its heap entry, while queued
	canceled bool
	queued   bool
}

// handler is what an event runs when it fires. Plain callbacks are
// wrapped as funcHandler; a Task's continuations are named pointer types
// over the Task, so binding one is a conversion, not an allocation.
type handler interface{ fire() }

// funcHandler adapts a plain callback to handler.
type funcHandler func()

func (f funcHandler) fire() { f() }

// Time reports when the event is (or was last) scheduled to fire.
func (e *Event) Time() Time { return e.t }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Bind sets the callback the handle fires, for use with Reschedule.
// Bind once at setup: a queued occurrence keeps the callback it had
// when it was scheduled.
func (e *Event) Bind(fn func()) {
	e.h = nil
	if fn != nil {
		e.h = funcHandler(fn)
	}
}

// entry is one slot of the event heap. Entries are pointer-free values:
// sift operations copy plain scalars, so heap maintenance incurs no GC
// write barriers and the queue array is never scanned. The handle and
// callback live in the kernel's slot slab, indexed by slot.
type entry struct {
	t    Time
	seq  uint64
	slot int32
}

// eventSlot holds the pointerful half of a queued entry — its handle
// and the callback it had when (re)scheduled — and the entry's heap
// position, which every sift keeps current so Cancel and Reschedule
// find the entry in O(1). Free slots are chained through pos.
type eventSlot struct {
	e   *Event
	h   handler
	pos int32
}

// laneEntry is a handle-free post at the current instant.
type laneEntry struct {
	seq uint64
	h   handler
}

// laneInline is the lane's capacity within the Kernel itself; a run
// with more same-instant wakes pending at once grows it on the heap.
const laneInline = 8

// before is the queue order: time first, then scheduling sequence, so
// same-instant events fire in the order they were scheduled.
func (a *entry) before(b *entry) bool {
	//lint:allow floateq tie-break on identity of stored times: both sides are copies of the same scheduled value, never recomputed
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; create kernels with NewKernel.
type Kernel struct {
	now   Time
	queue []entry // 4-ary min-heap of the live timed events, by entry.before
	slots []eventSlot
	free  int32 // head of the free-slot chain, -1 when empty
	// lane[laneHead:] is the FIFO of handle-free posts at now. Its
	// entries are timed now and numbered in post order, so it stays
	// sorted by (t, seq) and step merges it with the heap top.
	lane     []laneEntry
	laneHead int
	laneBuf  [laneInline]laneEntry
	seq      uint64
	stopped  bool
	// procs holds the live processes, made by the first Spawn.
	procs map[*Proc]struct{}

	// fired counts events executed, for diagnostics and run limits.
	fired uint64
	// scheduled counts events ever queued, for telemetry.
	scheduled uint64
	// maxQueue is the high-water mark of live queued events.
	maxQueue int
	// limit aborts runaway simulations; 0 means no limit.
	limit uint64

	// cancelFn, when set, is polled every cancelEvery fired events; a
	// true return stops the run exactly like Stop. It lets a host
	// (e.g. a simulation server draining a shutdown, or a client that
	// hung up) interrupt a long run without perturbing determinism:
	// the check schedules nothing and touches no simulation state, so
	// an uncancelled run is byte-identical to one with no check
	// installed.
	cancelFn    func() bool
	cancelEvery uint64
}

// NewKernel returns a kernel with the clock at zero and an empty queue.
func NewKernel() *Kernel {
	k := &Kernel{free: -1}
	k.lane = k.laneBuf[:0]
	return k
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Fired returns the number of events executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// Scheduled returns the number of events ever queued (fired, pending or
// canceled).
func (k *Kernel) Scheduled() uint64 { return k.scheduled }

// QueueLen returns the number of pending (scheduled, neither fired nor
// canceled) events.
func (k *Kernel) QueueLen() int { return len(k.queue) + len(k.lane) - k.laneHead }

// MaxQueueLen returns the high-water mark of pending events.
func (k *Kernel) MaxQueueLen() int { return k.maxQueue }

// SetEventLimit aborts Run with a panic after n events have fired.
// It is a guard against runaway simulations in tests; n = 0 disables it.
func (k *Kernel) SetEventLimit(n uint64) { k.limit = n }

// fatal is the kernel's one cold path for misuse panics. Keeping the
// formatting out of line keeps it out of the hot entry points.
//
//go:noinline
func fatal(format string, args ...any) {
	panic(fmt.Sprintf(format, args...))
}

// siftUp moves ent from hole i toward the root and stores it where it
// belongs, keeping every moved entry's slot position current. The heap
// is 4-ary: wider fan-out halves the tree depth, and pops — where most
// comparisons happen — stay cache-friendly because the four children
// are adjacent.
func (k *Kernel) siftUp(i int, ent entry) {
	q := k.queue
	for i > 0 {
		parent := (i - 1) / 4
		if !ent.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		k.slots[q[i].slot].pos = int32(i)
		i = parent
	}
	q[i] = ent
	k.slots[ent.slot].pos = int32(i)
}

// siftDown moves ent from hole i toward the leaves and stores it where
// it belongs.
func (k *Kernel) siftDown(i int, ent entry) {
	q := k.queue
	n := len(q)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := min(first+4, n)
		for c := first + 1; c < end; c++ {
			if q[c].before(&q[best]) {
				best = c
			}
		}
		if !q[best].before(&ent) {
			break
		}
		q[i] = q[best]
		k.slots[q[i].slot].pos = int32(i)
		i = best
	}
	q[i] = ent
	k.slots[ent.slot].pos = int32(i)
}

// place stores ent at heap position i, sifting whichever way its key
// requires.
func (k *Kernel) place(i int, ent entry) {
	if i > 0 && ent.before(&k.queue[(i-1)/4]) {
		k.siftUp(i, ent)
	} else {
		k.siftDown(i, ent)
	}
}

// remove takes the entry at heap position i out of the queue and frees
// its slot.
func (k *Kernel) remove(i int) {
	slot := k.queue[i].slot
	n := len(k.queue) - 1
	last := k.queue[n]
	k.queue = k.queue[:n]
	if i < n {
		k.place(i, last)
	}
	k.slots[slot] = eventSlot{pos: k.free}
	k.free = slot
}

// noteLen updates the queue's high-water mark.
func (k *Kernel) noteLen() {
	if n := k.QueueLen(); n > k.maxQueue {
		k.maxQueue = n
	}
}

// schedule queues handle e at t under a fresh sequence number. A queued
// handle's entry moves in place; any other takes a free slot and a new
// heap leaf.
func (k *Kernel) schedule(e *Event, t Time) {
	if t < k.now {
		fatal("sim: scheduling event at %v before now %v", t, k.now)
	}
	ent := entry{t: t, seq: k.seq, slot: e.slot}
	k.seq++
	k.scheduled++
	e.t = t
	e.canceled = false
	if e.queued {
		s := &k.slots[e.slot]
		s.h = e.h
		k.place(int(s.pos), ent)
		return
	}
	if ent.slot = k.free; ent.slot >= 0 {
		s := &k.slots[ent.slot]
		k.free = s.pos
		s.e, s.h = e, e.h
	} else {
		ent.slot = int32(len(k.slots))
		k.slots = append(k.slots, eventSlot{e: e, h: e.h})
	}
	e.slot = ent.slot
	e.queued = true
	k.queue = append(k.queue, ent)
	k.siftUp(len(k.queue)-1, ent)
	k.noteLen()
}

// post queues h at the current instant with no cancellation handle, on
// the same-instant lane. It is the kernel's zero-allocation path for
// internal wakeups: no slot, no heap sift.
func (k *Kernel) post(h handler) {
	if len(k.lane) == cap(k.lane) && k.laneHead > 0 {
		n := copy(k.lane, k.lane[k.laneHead:])
		clear(k.lane[n:])
		k.lane, k.laneHead = k.lane[:n], 0
	}
	k.lane = append(k.lane, laneEntry{seq: k.seq, h: h})
	k.seq++
	k.scheduled++
	k.noteLen()
}

// At schedules fn to run at absolute time t. Scheduling in the past
// (t < Now) panics: allowing it would silently reorder causality. The
// occurrence has no handle: a caller that may cancel or re-arm it owns
// an Event instead (Bind, then Reschedule).
//
// At stays out of line: its Event escapes to the kernel's slot slab
// wherever it is inlined, so one call site keeps one allocation site.
//
//go:noinline
func (k *Kernel) At(t Time, fn func()) {
	k.schedule(&Event{h: funcHandler(fn)}, t)
}

// After schedules fn to run d seconds from now. Negative d panics.
func (k *Kernel) After(d Duration, fn func()) {
	if d < 0 {
		fatal("sim: negative delay %v", d)
	}
	k.At(k.now+d, fn)
}

// Cancel removes the event from the queue if it has not fired.
// Canceling an already-fired or already-canceled event is a no-op.
func (k *Kernel) Cancel(e *Event) {
	if e == nil {
		return
	}
	e.canceled = true
	if e.queued {
		e.queued = false
		k.remove(int(k.slots[e.slot].pos))
	}
}

// Reschedule moves e to fire at absolute time t, reusing the handle and
// its bound callback: periodic callers allocate one Event for a whole
// series of occurrences instead of one per tick. The handle may be
// pending (its entry moves in place), fired, canceled, or a zero Event
// bound with Bind. Either way it takes a fresh sequence number, so at
// an equal time it fires after everything already queued there.
// Scheduling in the past panics, as with At.
func (k *Kernel) Reschedule(e *Event, t Time) {
	if e.h == nil {
		fatal("sim: Reschedule of an unbound Event (missing Bind)")
	}
	k.schedule(e, t)
}

// step fires the next event in (t, seq) order: the lane's head when it
// precedes the heap's top, else the top. It reports false when nothing
// is queued.
func (k *Kernel) step() bool {
	var h handler
	if k.laneHead < len(k.lane) && (len(k.queue) == 0 || k.now < k.queue[0].t || k.lane[k.laneHead].seq < k.queue[0].seq) {
		l := &k.lane[k.laneHead]
		h = l.h
		l.h = nil
		if k.laneHead++; k.laneHead == len(k.lane) {
			k.lane, k.laneHead = k.lane[:0], 0
		}
	} else if len(k.queue) > 0 {
		top := &k.queue[0]
		s := &k.slots[top.slot]
		h = s.h
		s.e.queued = false
		k.now = top.t
		k.remove(0)
	} else {
		return false
	}
	k.fired++
	if k.limit > 0 && k.fired > k.limit {
		fatal("sim: event limit %d exceeded at t=%v", k.limit, k.now)
	}
	if k.cancelFn != nil && k.fired%k.cancelEvery == 0 && k.cancelFn() {
		k.stopped = true
	}
	h.fire()
	return true
}

// Run executes events until the queue is empty or Stop is called.
func (k *Kernel) Run() {
	k.stopped = false
	for !k.stopped && k.step() {
	}
	k.shutdownProcs()
}

// RunUntil executes events with time ≤ t, then sets the clock to t.
// Events scheduled after t remain queued. A run halted early — by Stop
// or a tripped cancel check — leaves the clock at the last fired event
// instead of jumping to t, so a later resume replays the remaining
// queue without time running backwards.
func (k *Kernel) RunUntil(t Time) {
	k.stopped = false
	for !k.stopped && k.NextEventTime() <= t && k.step() {
	}
	if !k.stopped && k.now < t {
		k.now = t
	}
}

// Stop halts Run / RunUntil after the current event completes. Queued
// events are preserved; a later Run resumes them.
func (k *Kernel) Stop() { k.stopped = true }

// SetCancelCheck installs fn, polled every `every` fired events during
// Run and RunUntil; a true return stops the run exactly like Stop (the
// event that tripped the check still completes, queued events are
// preserved). It is the cancellable run entry for hosts that must
// interrupt a simulation mid-flight — a serving layer draining on
// shutdown, a client that disconnected — without touching determinism:
// the poll schedules no events and reads no simulation state, so a run
// that is never cancelled stays byte-identical to one with no check
// installed. every ≤ 0 or a nil fn removes the check.
func (k *Kernel) SetCancelCheck(every int, fn func() bool) {
	if every <= 0 || fn == nil {
		k.cancelFn, k.cancelEvery = nil, 0
		return
	}
	k.cancelFn, k.cancelEvery = fn, uint64(every)
}

// Idle reports whether no events remain queued. It is a pure read.
func (k *Kernel) Idle() bool { return k.QueueLen() == 0 }

// NextEventTime returns the time of the earliest pending event,
// or Infinity when the queue is empty. It is a pure read.
func (k *Kernel) NextEventTime() Time {
	if k.laneHead < len(k.lane) {
		return k.now
	}
	if len(k.queue) > 0 {
		return k.queue[0].t
	}
	return Infinity
}

// shutdownProcs unwinds every parked process so its goroutine exits.
// Called when Run drains the queue.
func (k *Kernel) shutdownProcs() {
	for len(k.procs) > 0 {
		var p *Proc
		// Pick the live process with the smallest id for determinism.
		for q := range k.procs {
			if p == nil || q.id < p.id {
				p = q
			}
		}
		p.kill()
	}
}
