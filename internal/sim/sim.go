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
// at-a-time handoff, and Chan and Resource block Procs. They remain for
// tests and micro-benchmarks written as sequential processes; the
// simulator itself starts no goroutines.
//
// # Performance
//
// The event queue is an inlined 4-ary min-heap of value entries: pushing
// an event copies a small struct into the heap's backing array and never
// allocates per schedule (beyond amortized slice growth). Cancellation is
// lazy — Cancel and Reschedule mark the handle and leave the stale heap
// entry behind to be skipped when it surfaces — so neither is O(log n).
// Internal wakeups (task resumes) are scheduled as handle-free entries
// and allocate nothing: a Task's continuations are named pointer types
// over the Task itself, so scheduling one stores an interface, never a
// fresh closure. Periodic callers reuse one Event handle through
// Reschedule instead of allocating per occurrence.
package sim

import (
	"fmt"
	"math"
	"sort"
)

// Time is a point in simulated time, in seconds.
type Time float64

// Duration is a span of simulated time, in seconds.
type Duration = Time

// Infinity is a time later than any schedulable event.
const Infinity Time = Time(math.MaxFloat64)

// Event is a scheduled callback handle. It is returned by the scheduling
// methods so callers can cancel it before it fires, and a caller that owns
// an Event may reuse it for a whole series of occurrences via Reschedule.
type Event struct {
	t        Time
	seq      uint64
	h        handler
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

// Bind sets the callback a zero Event handle fires, for use with
// Reschedule. Events returned by At and After are already bound.
func (e *Event) Bind(fn func()) {
	e.h = nil
	if fn != nil {
		e.h = funcHandler(fn)
	}
}

// entry is one slot of the event heap. Entries are pointer-free values:
// sift operations copy plain scalars, so heap maintenance incurs no GC
// write barriers and the (large, churning) queue array is never scanned.
// The callback and cancellation handle live in the kernel's slot slab,
// indexed by slot; an entry is a snapshot of one (re)scheduling of its
// handle, and is stale — skipped on pop — once the handle was canceled
// or rescheduled since.
type entry struct {
	t    Time
	seq  uint64
	slot int32
}

// eventSlot holds the pointerful half of a queued entry: the handler
// and, for cancelable events, the handle. Slots are recycled through
// Kernel.freeSlots as entries are popped.
type eventSlot struct {
	e *Event
	h handler
}

// before is the queue order: time first, then scheduling sequence, so
// same-instant events fire in the order they were scheduled.
func (a *entry) before(b *entry) bool {
	//lint:allow floateq tie-break on identity of stored times: both sides are copies of the same scheduled value, never recomputed
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; create kernels with NewKernel.
type Kernel struct {
	now       Time
	queue     []entry // 4-ary min-heap ordered by entry.before
	slots     []eventSlot
	freeSlots []int32
	seq       uint64
	live      int // queued entries that are not stale
	stopped   bool
	procs     map[*Proc]struct{}
	tracer    Tracer

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
	return &Kernel{procs: make(map[*Proc]struct{})}
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
func (k *Kernel) QueueLen() int { return k.live }

// MaxQueueLen returns the high-water mark of pending events.
func (k *Kernel) MaxQueueLen() int { return k.maxQueue }

// LiveProcs returns the number of spawned Procs that have not
// finished. Tasks are not counted: they hold no goroutine.
func (k *Kernel) LiveProcs() int { return len(k.procs) }

// SetEventLimit aborts Run with a panic after n events have fired.
// It is a guard against runaway simulations in tests; n = 0 disables it.
func (k *Kernel) SetEventLimit(n uint64) { k.limit = n }

// SetTracer installs a tracer that observes process state transitions.
// A nil tracer disables tracing.
func (k *Kernel) SetTracer(t Tracer) { k.tracer = t }

// Tracer returns the installed tracer, or nil.
func (k *Kernel) Tracer() Tracer { return k.tracer }

// heapPush appends an entry and sifts it up with a hole (the moving
// entry is written once, at its final position). The heap is 4-ary:
// wider fan-out halves the tree depth, and pops — where most
// comparisons happen — stay cache-friendly because the four children
// are adjacent.
func (k *Kernel) heapPush(ent entry) {
	q := append(k.queue, ent)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ent.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ent
	k.queue = q
}

// heapPop removes and returns the minimum entry, sifting the displaced
// tail entry down with a hole.
func (k *Kernel) heapPop() entry {
	q := k.queue
	top := q[0]
	n := len(q) - 1
	moved := q[n]
	q = q[:n]
	k.queue = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q[c].before(&q[best]) {
				best = c
			}
		}
		if !q[best].before(&moved) {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = moved
	return top
}

// takeTop pops the minimum entry, releases its slot and returns its
// payload. ok distinguishes a live event from a stale (superseded) one.
func (k *Kernel) takeTop() (ent entry, e *Event, h handler, ok bool) {
	ent = k.heapPop()
	s := &k.slots[ent.slot]
	e, h = s.e, s.h
	*s = eventSlot{} // release references
	k.freeSlots = append(k.freeSlots, ent.slot)
	ok = e == nil || (!e.canceled && e.seq == ent.seq)
	return ent, e, h, ok
}

// topStale reports whether the heap's head entry was superseded.
func (k *Kernel) topStale() bool {
	ent := &k.queue[0]
	e := k.slots[ent.slot].e
	return e != nil && (e.canceled || e.seq != ent.seq)
}

// drainStale pops superseded entries off the top of the heap. Together
// with compactQueue it is where stale entries leave the queue; every
// mutation (Cancel, Reschedule, step) restores the invariant that the
// heap's head is live whenever any live event exists, so Idle,
// NextEventTime and RunUntil's peek are pure reads.
func (k *Kernel) drainStale() {
	for len(k.queue) > 0 && k.topStale() {
		k.takeTop()
	}
}

// compactQueue rebuilds the heap without its stale entries, releasing
// their slots. Stale entries buried far from the top (a battery death
// handle rescheduled on every mode transition leaves one per
// transition, timed near end-of-life) would otherwise accumulate for
// the whole run. Triggered when stale entries outnumber live ones 3:1,
// so the cost is amortized O(1) per cancellation. Pop order is the
// total order (t, seq), independent of heap shape, so compaction cannot
// perturb event ordering.
func (k *Kernel) compactQueue() {
	kept := k.queue[:0]
	for _, ent := range k.queue {
		s := &k.slots[ent.slot]
		e := s.e
		if e == nil || (!e.canceled && e.seq == ent.seq) {
			kept = append(kept, ent)
			continue
		}
		*s = eventSlot{}
		k.freeSlots = append(k.freeSlots, ent.slot)
	}
	k.queue = kept
	// Sift every internal node down, deepest first (4-ary heapify).
	for i := (len(kept) - 2) / 4; i >= 0; i-- {
		k.siftDown(i)
	}
}

// siftDown restores the heap property below position i.
func (k *Kernel) siftDown(i int) {
	q := k.queue
	n := len(q)
	moved := q[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q[c].before(&q[best]) {
				best = c
			}
		}
		if !q[best].before(&moved) {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = moved
}

// schedule queues h at time t under a fresh sequence number, tied to
// handle e (nil for internal wakeups), and returns that sequence number.
func (k *Kernel) schedule(t Time, e *Event, h handler) uint64 {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	seq := k.seq
	k.seq++
	k.scheduled++
	k.live++
	if k.live > k.maxQueue {
		k.maxQueue = k.live
	}
	var slot int32
	if n := len(k.freeSlots); n > 0 {
		slot = k.freeSlots[n-1]
		k.freeSlots = k.freeSlots[:n-1]
		k.slots[slot] = eventSlot{e: e, h: h}
	} else {
		slot = int32(len(k.slots))
		k.slots = append(k.slots, eventSlot{e: e, h: h})
	}
	k.heapPush(entry{t: t, seq: seq, slot: slot})
	return seq
}

// maybeCompact rebuilds the heap when stale entries outnumber live ones
// 3:1. Callers must only invoke it when every handle's seq matches its
// live heap entry — i.e. never from inside schedule(), whose Reschedule
// caller assigns e.seq only after it returns.
func (k *Kernel) maybeCompact() {
	if ln := len(k.queue); ln >= 128 && ln > 4*k.live {
		k.compactQueue()
	}
}

// post schedules h at the current instant with no cancellation handle.
// It is the kernel's zero-allocation path for internal wakeups.
func (k *Kernel) post(h handler) {
	k.schedule(k.now, nil, h)
}

// At schedules fn to run at absolute time t. Scheduling in the past
// (t < Now) panics: allowing it would silently reorder causality.
func (k *Kernel) At(t Time, fn func()) *Event {
	e := &Event{t: t, h: funcHandler(fn)}
	e.seq = k.schedule(t, e, e.h)
	e.queued = true
	return e
}

// After schedules fn to run d seconds from now. Negative d panics.
func (k *Kernel) After(d Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.At(k.now+d, fn)
}

// Cancel removes the event from the queue if it has not fired.
// Canceling an already-fired or already-canceled event is a no-op.
// The heap entry is left behind and skipped when it surfaces.
func (k *Kernel) Cancel(e *Event) {
	if e == nil {
		return
	}
	if e.canceled || !e.queued {
		e.canceled = true
		return
	}
	e.canceled = true
	e.queued = false
	k.live--
	k.drainStale()
	k.maybeCompact()
}

// Reschedule moves e to fire at absolute time t, reusing the handle and
// its bound callback: periodic callers allocate one Event for a whole
// series of occurrences instead of one per tick. The handle may be
// pending (its old occurrence is superseded), fired, canceled, or a zero
// Event bound with Bind. Scheduling in the past panics, as with At.
func (k *Kernel) Reschedule(e *Event, t Time) {
	if e.h == nil {
		panic("sim: Reschedule of an unbound Event (missing Bind)")
	}
	if e.queued {
		e.queued = false
		k.live--
	}
	e.canceled = false
	e.t = t
	e.seq = k.schedule(t, e, e.h)
	e.queued = true
	k.drainStale()
	k.maybeCompact()
}

// step fires the next event. It reports false when the queue is empty.
func (k *Kernel) step() bool {
	for len(k.queue) > 0 {
		ent, e, h, ok := k.takeTop()
		if !ok {
			continue
		}
		if e != nil {
			e.queued = false
		}
		k.live--
		if ent.t < k.now {
			panic("sim: event queue time went backwards")
		}
		k.now = ent.t
		k.fired++
		if k.limit > 0 && k.fired > k.limit {
			panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v", k.limit, k.now))
		}
		if k.cancelFn != nil && k.fired%k.cancelEvery == 0 && k.cancelFn() {
			k.stopped = true
		}
		k.drainStale()
		h.fire()
		return true
	}
	return false
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
	for !k.stopped && k.live > 0 && k.queue[0].t <= t {
		k.step()
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
func (k *Kernel) Idle() bool { return k.live == 0 }

// NextEventTime returns the time of the earliest pending event,
// or Infinity when the queue is empty. It is a pure read.
func (k *Kernel) NextEventTime() Time {
	if k.live > 0 {
		return k.queue[0].t
	}
	return Infinity
}

// shutdownProcs terminates all parked processes so their goroutines exit.
// Called when Run drains the queue; processes receive ErrShutdown from
// their blocking call and are expected to return promptly.
func (k *Kernel) shutdownProcs() {
	for len(k.procs) > 0 {
		var p *Proc
		// Pick the live process with the smallest id for determinism.
		for q := range k.procs {
			if p == nil || q.id < p.id {
				p = q
			}
		}
		p.kill(ErrShutdown)
	}
}

// Diagnose lists the live (not finished) processes and the blocking call
// each is parked in — the first thing to look at when a simulation drains
// its queue while work seems unfinished (a deadlocked rendezvous, a
// receive nobody will satisfy). Results are sorted by process id for
// determinism.
func (k *Kernel) Diagnose() []string {
	procs := make([]*Proc, 0, len(k.procs))
	for p := range k.procs {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].id < procs[j].id })
	out := make([]string, 0, len(procs))
	for _, p := range procs {
		where := p.blockedWhy()
		if where == "" {
			where = "runnable"
		}
		out = append(out, fmt.Sprintf("%s: %s", p.name, where))
	}
	return out
}
