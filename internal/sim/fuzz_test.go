package sim

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// FuzzKernelOrder is a differential check of the event queue. It
// decodes an op sequence, three bytes per op, and applies it both to a
// Kernel and to refKernel, a reference that keeps every live
// (t, seq, id) in a slice and fires the minimum. The ops cover At,
// Reschedule to a later, the current or an earlier instant, Cancel,
// cancel-then-reschedule, Task starts, episodes, wakes, interrupts and
// exits, ops scheduled from inside a firing callback, Run and RunUntil.
// After every op the two fire logs, the counters and the queue's read
// accessors must agree.
func FuzzKernelOrder(f *testing.F) {
	for _, s := range orderSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		kw, rw := newKernelWorld(), newRefWorld()
		for i, n := 0, 0; i+3 <= len(data) && n < maxOrderOps; i, n = i+3, n+1 {
			op := decodeOp(data[i:])
			if op.code == opNest {
				if i+6 > len(data) {
					break
				}
				i += 3
				inner := decodeOp(data[i:])
				kw.nested[kw.nestKey(op.a)] = inner
				rw.nested[rw.nestKey(op.a)] = inner
			} else {
				kw.apply(op, true)
				rw.apply(op, true)
			}
			checkWorlds(t, n, kw, rw)
		}
		kw.k.Run()
		rw.r.run(Infinity)
		checkWorlds(t, -1, kw, rw)
	})
}

// Op codes of the FuzzKernelOrder encoding. Each op is (code, a, b):
// a picks the handle or task, b the delay and mode.
const (
	opAt            = iota // new handle at now + b%8
	opResched              // handle a to reschedTime(b)
	opCancel               // handle a
	opCancelResched        // Cancel handle a, then Reschedule it to now + b%8
	opStart                // task a%2, if done: Start(now + b%8)
	opBlock                // task a%2, if running: Block(∞), Block(d) or WaitUntil(d)
	opWake                 // task a%2: Wake(current or previous epoch, nil or an error)
	opInterrupt            // task a%2
	opExit                 // task a%2, if running
	opNest                 // the next op runs once when handle or task a next fires
	opRunUntil             // RunUntil(now + b%8)
	opRun                  // Run to exhaustion
	numOps
)

const (
	maxOrderOps   = 256
	maxFuzzHandle = 32
	poolHandles   = 4 // reusable handles bound up front; At handles follow
)

type orderOp struct{ code, a, b byte }

func decodeOp(p []byte) orderOp { return orderOp{p[0] % numOps, p[1], p[2]} }

// reschedTime is a Reschedule target for a handle now timed at cur:
// later than now, now itself, or earlier than cur (never before now).
func reschedTime(now, cur Time, b byte) Time {
	dt := Time(b % 8)
	switch b / 8 % 3 {
	case 0:
		return now + dt
	case 1:
		return now
	}
	if at := cur - dt; at > now {
		return at
	}
	return now
}

var errFuzzWake = errors.New("fuzz wake")

// orderWorld is the bookkeeping both sides share: the fire log and the
// ops armed to run inside a firing callback.
type orderWorld struct {
	log    []string
	nested map[int]orderOp
}

// nestKey maps an op's a byte to a handle index (≥ 0) or a task (< 0).
func (w *orderWorld) nestKeyFor(a byte, handles int) int {
	if a%2 == 0 {
		return int(a/2) % handles
	}
	return -1 - int(a/2)%2
}

func (w *orderWorld) logf(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf(format, args...))
}

// kernelWorld drives the real kernel.
type kernelWorld struct {
	orderWorld
	k     *Kernel
	hs    []*Event
	tasks [2]fuzzTask
}

// fuzzTask is a Task owner that logs its resumes and runs its nested op.
type fuzzTask struct {
	w       *kernelWorld
	j       int
	t       Task
	running bool
}

func (ft *fuzzTask) Resume(err error) {
	ft.running = true
	ft.w.logf("t%d %v @%v", ft.j, err, ft.w.k.Now())
	ft.w.runNested(-1 - ft.j)
}

func newKernelWorld() *kernelWorld {
	w := &kernelWorld{orderWorld: orderWorld{nested: map[int]orderOp{}}, k: NewKernel()}
	for i := 0; i < poolHandles; i++ {
		e := new(Event)
		e.Bind(func() { w.fire(i) })
		w.hs = append(w.hs, e)
	}
	for j := range w.tasks {
		ft := &w.tasks[j]
		ft.w, ft.j = w, j
		ft.t.Init(w.k, ft)
	}
	return w
}

func (w *kernelWorld) nestKey(a byte) int { return w.nestKeyFor(a, len(w.hs)) }

func (w *kernelWorld) fire(i int) {
	w.logf("h%d @%v", i, w.k.Now())
	w.runNested(i)
}

func (w *kernelWorld) runNested(key int) {
	if op, ok := w.nested[key]; ok {
		delete(w.nested, key)
		w.apply(op, false)
	}
}

func (w *kernelWorld) apply(op orderOp, top bool) {
	k := w.k
	h := w.hs[int(op.a)%len(w.hs)]
	ft := &w.tasks[op.a%2]
	switch op.code {
	case opAt:
		if i := len(w.hs); i < maxFuzzHandle {
			w.hs = append(w.hs, k.At(k.Now()+Time(op.b%8), func() { w.fire(i) }))
		}
	case opResched:
		k.Reschedule(h, reschedTime(k.Now(), h.Time(), op.b))
	case opCancel:
		k.Cancel(h)
	case opCancelResched:
		k.Cancel(h)
		k.Reschedule(h, k.Now()+Time(op.b%8))
	case opStart:
		if ft.t.done {
			ft.t.Start(k.Now() + Time(op.b%8))
		}
	case opBlock:
		if ft.running {
			ft.running = false
			d := k.Now() + Time(op.b/3%8)
			switch op.b % 3 {
			case 0:
				ft.t.Block(Infinity)
			case 1:
				ft.t.Block(d)
			default:
				ft.t.WaitUntil(d)
			}
		}
	case opWake:
		var err error
		if op.b&2 != 0 {
			err = errFuzzWake
		}
		ok := ft.t.Wake(ft.t.seq-uint64(op.b&1), err)
		w.logf("wake t%d %v", op.a%2, ok)
	case opInterrupt:
		ft.t.Interrupt()
	case opExit:
		if ft.running {
			ft.running = false
			ft.t.Exit()
		}
	case opRunUntil:
		if top {
			k.RunUntil(k.Now() + Time(op.b%8))
		}
	case opRun:
		if top {
			k.Run()
		}
	}
}

// refKernel is the reference queue: an unordered slice of live entries,
// fired by linear search for the least (t, seq).
type refKernel struct {
	now                   Time
	seq, fired, scheduled uint64
	maxQueue              int
	live                  []refEntry
}

type refEntry struct {
	t   Time
	seq uint64
	h   *refHandle // nil for a handle-free post
	fn  func()     // the callback as it was when scheduled
}

type refHandle struct {
	t                Time
	queued, canceled bool
}

func (r *refKernel) push(t Time, h *refHandle, fn func()) {
	if h != nil {
		if h.queued {
			r.drop(h)
		}
		h.t, h.queued, h.canceled = t, true, false
	}
	r.live = append(r.live, refEntry{t: t, seq: r.seq, h: h, fn: fn})
	r.seq++
	r.scheduled++
	r.maxQueue = max(r.maxQueue, len(r.live))
}

func (r *refKernel) drop(h *refHandle) {
	r.live = slices.DeleteFunc(r.live, func(e refEntry) bool { return e.h == h })
}

func (r *refKernel) cancel(h *refHandle) {
	if h.queued {
		r.drop(h)
	}
	h.queued, h.canceled = false, true
}

// next returns the index of the least live (t, seq), or -1.
func (r *refKernel) next() int {
	m := -1
	for i, e := range r.live {
		if m < 0 || e.t < r.live[m].t || (e.t == r.live[m].t && e.seq < r.live[m].seq) {
			m = i
		}
	}
	return m
}

func (r *refKernel) nextTime() Time {
	if m := r.next(); m >= 0 {
		return r.live[m].t
	}
	return Infinity
}

// run fires every live entry timed at or before until, in (t, seq) order.
func (r *refKernel) run(until Time) {
	for m := r.next(); m >= 0 && r.live[m].t <= until; m = r.next() {
		e := r.live[m]
		r.live = slices.Delete(r.live, m, m+1)
		if e.h != nil {
			e.h.queued = false
		}
		r.now = e.t
		r.fired++
		e.fn()
	}
}

// refWorld drives the reference; refTask restates Task over refKernel.
type refWorld struct {
	orderWorld
	r     refKernel
	hs    []*refHandle
	fns   []func()
	tasks [2]refTask
}

type refTask struct {
	w                                         *refWorld
	j                                         int
	seq, timerSeq                             uint64
	armed, starting, timedOut, timerSet, done bool
	err, timerErr                             error
	timer                                     refHandle
	running                                   bool
}

func newRefWorld() *refWorld {
	w := &refWorld{orderWorld: orderWorld{nested: map[int]orderOp{}}}
	for i := 0; i < poolHandles; i++ {
		w.addHandle()
	}
	for j := range w.tasks {
		w.tasks[j] = refTask{w: w, j: j, done: true}
	}
	return w
}

func (w *refWorld) addHandle() int {
	i := len(w.hs)
	w.hs = append(w.hs, &refHandle{})
	w.fns = append(w.fns, func() { w.fire(i) })
	return i
}

func (w *refWorld) nestKey(a byte) int { return w.nestKeyFor(a, len(w.hs)) }

func (w *refWorld) fire(i int) {
	w.logf("h%d @%v", i, w.r.now)
	w.runNested(i)
}

func (w *refWorld) runNested(key int) {
	if op, ok := w.nested[key]; ok {
		delete(w.nested, key)
		w.apply(op, false)
	}
}

func (w *refWorld) apply(op orderOp, top bool) {
	r := &w.r
	hi := int(op.a) % len(w.hs)
	h := w.hs[hi]
	rt := &w.tasks[op.a%2]
	switch op.code {
	case opAt:
		if len(w.hs) < maxFuzzHandle {
			i := w.addHandle()
			r.push(r.now+Time(op.b%8), w.hs[i], w.fns[i])
		}
	case opResched:
		r.push(reschedTime(r.now, h.t, op.b), h, w.fns[hi])
	case opCancel:
		r.cancel(h)
	case opCancelResched:
		r.cancel(h)
		r.push(r.now+Time(op.b%8), h, w.fns[hi])
	case opStart:
		if rt.done {
			rt.start(r.now + Time(op.b%8))
		}
	case opBlock:
		if rt.running {
			rt.running = false
			d := r.now + Time(op.b/3%8)
			switch op.b % 3 {
			case 0:
				rt.block()
			case 1:
				rt.armTimer(rt.block(), d, ErrTimeout)
			default:
				rt.armTimer(rt.block(), d, nil)
			}
		}
	case opWake:
		var err error
		if op.b&2 != 0 {
			err = errFuzzWake
		}
		ok := rt.deliver(rt.seq-uint64(op.b&1), err)
		w.logf("wake t%d %v", op.a%2, ok)
	case opInterrupt:
		rt.interrupt()
	case opExit:
		if rt.running {
			rt.running = false
			rt.done, rt.armed = true, false
		}
	case opRunUntil:
		if top {
			until := r.now + Time(op.b%8)
			r.run(until)
			r.now = until
		}
	case opRun:
		if top {
			r.run(Infinity)
		}
	}
}

func (t *refTask) resume(err error) {
	t.running = true
	t.w.logf("t%d %v @%v", t.j, err, t.w.r.now)
	t.w.runNested(-1 - t.j)
}

func (t *refTask) start(at Time) {
	t.done = false
	t.seq++
	t.armed, t.starting, t.timedOut = true, true, false
	t.w.r.push(at, &t.timer, t.fireStart)
}

func (t *refTask) block() uint64 {
	t.seq++
	t.armed, t.timedOut = true, false
	return t.seq
}

func (t *refTask) armTimer(seq uint64, at Time, err error) {
	t.timerSeq, t.timerErr, t.timerSet = seq, err, true
	t.w.r.push(at, &t.timer, t.fireTimer)
}

func (t *refTask) interrupt() {
	switch {
	case t.done:
	case t.armed:
		t.deliver(t.seq, ErrInterrupted)
	default:
		t.w.r.push(t.w.r.now, nil, t.fireShot)
	}
}

func (t *refTask) deliver(seq uint64, err error) bool {
	if t.seq != seq {
		return false
	}
	if !t.armed {
		return !t.timedOut
	}
	t.armed, t.timedOut = false, false
	if t.starting {
		t.starting = false
		t.w.r.cancel(&t.timer)
		t.resume(err)
		return true
	}
	t.err = err
	t.w.r.push(t.w.r.now, nil, t.fireWake)
	return true
}

func (t *refTask) fireStart() {
	if t.armed && t.starting {
		t.armed, t.starting = false, false
		t.resume(nil)
	}
}

func (t *refTask) fireTimer() {
	if t.deliver(t.timerSeq, t.timerErr) {
		t.timedOut = true
	}
}

func (t *refTask) fireWake() {
	err := t.err
	t.err = nil
	if t.timerSet {
		t.timerSet = false
		t.w.r.cancel(&t.timer)
	}
	t.resume(err)
}

func (t *refTask) fireShot() {
	if !t.done && t.armed {
		t.deliver(t.seq, ErrInterrupted)
	}
}

// checkWorlds compares the kernel against the reference after op n.
func checkWorlds(t *testing.T, n int, kw *kernelWorld, rw *refWorld) {
	t.Helper()
	k, r := kw.k, &rw.r
	if !slices.Equal(kw.log, rw.log) {
		t.Fatalf("op %d: fire log\nkernel    %q\nreference %q", n, kw.log, rw.log)
	}
	type counters struct {
		Now, Next                      Time
		Fired, Scheduled               uint64
		QueueLen, MaxQueueLen, Handles int
		Idle                           bool
	}
	got := counters{k.Now(), k.NextEventTime(), k.Fired(), k.Scheduled(), k.QueueLen(), k.MaxQueueLen(), len(kw.hs), k.Idle()}
	want := counters{r.now, r.nextTime(), r.fired, r.scheduled, len(r.live), r.maxQueue, len(rw.hs), len(r.live) == 0}
	if got != want {
		t.Fatalf("op %d: kernel %+v, reference %+v", n, got, want)
	}
	checkQueue(t, n, k, r)
	for i, e := range kw.hs {
		if rh := rw.hs[i]; e.Time() != rh.t || e.Canceled() != rh.canceled {
			t.Fatalf("op %d: handle %d at %v canceled %v, reference at %v canceled %v", n, i, e.Time(), e.Canceled(), rh.t, rh.canceled)
		}
	}
	for j := range kw.tasks {
		kt, rt := &kw.tasks[j].t, &rw.tasks[j]
		if kt.seq != rt.seq || kt.armed != rt.armed || kt.done != rt.done {
			t.Fatalf("op %d: task %d seq %d armed %v done %v, reference seq %d armed %v done %v",
				n, j, kt.seq, kt.armed, kt.done, rt.seq, rt.armed, rt.done)
		}
	}
}

// checkQueue checks that the heap and the lane hold exactly the live
// timed events and the live posts, that the heap is ordered, and that
// every slot records its entry's heap position.
func checkQueue(t *testing.T, n int, k *Kernel, r *refKernel) {
	t.Helper()
	posts := 0
	for _, e := range r.live {
		if e.h == nil {
			posts++
		}
	}
	if lane := len(k.lane) - k.laneHead; len(k.queue) != len(r.live)-posts || lane != posts {
		t.Fatalf("op %d: heap %d and lane %d entries, reference %d timed and %d posts", n, len(k.queue), lane, len(r.live)-posts, posts)
	}
	for i := range k.queue {
		if i > 0 && k.queue[i].before(&k.queue[(i-1)/4]) {
			t.Fatalf("op %d: heap entry %d precedes its parent", n, i)
		}
		if s := k.slots[k.queue[i].slot]; int(s.pos) != i || !s.e.queued {
			t.Fatalf("op %d: heap entry %d: slot records position %d, queued %v", n, i, s.pos, s.e.queued)
		}
	}
}

// orderSeeds restate reschedule_test.go's scenarios, plus task episodes,
// in the FuzzKernelOrder encoding.
var orderSeeds = [][]byte{
	// Reschedule later, then earlier: fires once at the latest target.
	seedOps(opResched, 0, 5, opResched, 0, 16+3, opRun, 0, 0),
	// A callback re-arms its own handle after it fires.
	seedOps(opResched, 0, 1, opNest, 0, 0, opResched, 0, 1, opRun, 0, 0),
	// Reschedule revives a canceled handle.
	seedOps(opResched, 0, 1, opCancel, 0, 0, opResched, 0, 3, opRun, 0, 0),
	// Cancel/reschedule ping-pong across three handles.
	seedOps(opResched, 0, 1, opResched, 1, 2, opResched, 2, 3,
		opCancel, 1, 0, opResched, 0, 4, opResched, 1, 1, opRun, 0, 0),
	// Canceling the head keeps the read accessors exact.
	seedOps(opAt, 0, 1, opAt, 0, 2, opCancel, 4, 0, opRunUntil, 0, 1, opRun, 0, 0),
	// Every event canceled: idle without running.
	seedOps(opAt, 0, 1, opAt, 0, 2, opAt, 0, 3, opAt, 0, 4, opAt, 0, 5,
		opCancel, 4, 0, opCancel, 5, 0, opCancel, 6, 0, opCancel, 7, 0, opCancel, 8, 0, opRun, 0, 0),
	// A rescheduled handle takes a fresh sequence number at its instant.
	seedOps(opResched, 0, 1, opAt, 0, 2, opResched, 0, 2, opAt, 0, 2, opRun, 0, 0),
	// Churn: schedule, cancel and reschedule many handles at colliding times.
	seedOps(opAt, 0, 1, opAt, 0, 2, opAt, 0, 3, opAt, 0, 1, opAt, 0, 2, opAt, 0, 3,
		opCancel, 4, 0, opCancel, 6, 0, opCancel, 8, 0, opCancelResched, 4, 5,
		opResched, 5, 8+0, opResched, 7, 16+1, opRunUntil, 0, 2, opCancelResched, 6, 0, opRun, 0, 0),
	// Task episodes: start, a deadline, a wake, an interrupt of a running
	// task and a cancel-inside-callback.
	seedOps(opStart, 0, 1, opStart, 1, 1, opRunUntil, 0, 1,
		opBlock, 0, 1+3*2, opBlock, 1, 0, opWake, 1, 0, opInterrupt, 0, 0, opRunUntil, 0, 0,
		opNest, 1, 0, opBlock, 1, 2+3*1, opInterrupt, 1, 0, opRun, 0, 0),
	// Interrupting a task before it starts resumes it directly.
	seedOps(opStart, 0, 3, opInterrupt, 0, 0, opBlock, 0, 2, opWake, 0, 1, opExit, 0, 0, opRun, 0, 0),
}

func seedOps(b ...byte) []byte { return b }
