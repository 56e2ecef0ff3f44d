package sim

// Chan is an unbounded FIFO message queue connecting simulation processes.
// Sends never block (the queue is unbounded); receives block the calling
// process until a value is available. Values are delivered in send order,
// and competing receivers are served in the order they blocked. Like
// Proc, it remains for the benchmark probe only.
//
// Both internal queues are ring-less head-indexed slices: pops advance a
// head cursor instead of re-slicing, so the buffer's capacity survives
// drain/refill cycles and steady-state operation never re-allocates.
type Chan[T any] struct {
	queue  []T
	qhead  int
	recvrs []waiterRef
	rhead  int
}

// waiterRef identifies one blocking episode of a task: the epoch seq
// only matches while the task is still blocked in the episode that
// registered the reference, so stale refs are harmless.
type waiterRef struct {
	t   *Task
	seq uint64
}

// NewChan creates a channel for processes on kernel k. The kernel and
// name document the call site; the channel itself needs neither.
func NewChan[T any](k *Kernel, name string) *Chan[T] {
	return &Chan[T]{}
}

// Len returns the number of queued (sent but not received) values.
func (c *Chan[T]) Len() int { return len(c.queue) - c.qhead }

// popQueue removes and returns the oldest queued value. The slot is
// zeroed so popped values do not pin garbage, and the buffer is rewound
// once drained so its capacity is reused by the next fill.
func (c *Chan[T]) popQueue() T {
	v := c.queue[c.qhead]
	var zero T
	c.queue[c.qhead] = zero
	c.qhead++
	if c.qhead == len(c.queue) {
		c.queue = c.queue[:0]
		c.qhead = 0
	}
	return v
}

// Send enqueues v, waking the longest-blocked receiver if one exists.
// Send never blocks.
func (c *Chan[T]) Send(v T) {
	c.queue = append(c.queue, v)
	c.wakeOne()
}

// wakeOne wakes the longest-blocked live waiter, if any. Waiters whose
// episode lapsed (the receiver was interrupted) are skipped.
func (c *Chan[T]) wakeOne() {
	for len(c.recvrs) > c.rhead {
		w := c.recvrs[c.rhead]
		c.recvrs[c.rhead] = waiterRef{}
		c.rhead++
		if c.rhead == len(c.recvrs) {
			c.recvrs = c.recvrs[:0]
			c.rhead = 0
		}
		if w.t.deliver(w.seq, nil) {
			return
		}
	}
}

// dropWaiter removes the waiter registered under (t, seq), preserving
// FIFO order. Receivers that leave with an error remove themselves so
// the waiter list holds only parked processes.
func (c *Chan[T]) dropWaiter(t *Task, seq uint64) {
	for i := c.rhead; i < len(c.recvrs); i++ {
		if c.recvrs[i].t == t && c.recvrs[i].seq == seq {
			c.recvrs = append(c.recvrs[:i], c.recvrs[i+1:]...)
			if c.rhead == len(c.recvrs) {
				c.recvrs = c.recvrs[:0]
				c.rhead = 0
			}
			return
		}
	}
}

// Recv blocks the process until a value is available, returning it. It
// returns ErrInterrupted if the process's task is interrupted; shutdown
// unwinds the process.
func (c *Chan[T]) Recv(p *Proc) (T, error) {
	for c.Len() == 0 {
		seq := p.t.block()
		c.recvrs = append(c.recvrs, waiterRef{t: &p.t, seq: seq})
		if err := p.Await(); err != nil {
			// A wake consumed by a leaving waiter must be passed on.
			c.dropWaiter(&p.t, seq)
			if c.Len() > 0 {
				c.wakeOne()
			}
			var zero T
			return zero, err
		}
	}
	return c.popQueue(), nil
}
