package sim

// Chan is an unbounded FIFO message queue connecting simulation processes.
// Sends never block (the queue is unbounded); receives block the calling
// process until a value is available. Values are delivered in send order,
// and competing receivers are served in the order they blocked.
//
// Chan models mailbox-style message passing; transport latency belongs to
// the medium (see internal/serial), not the mailbox.
//
// Both internal queues are ring-less head-indexed slices: pops advance a
// head cursor instead of re-slicing, so the buffer's capacity survives
// drain/refill cycles and steady-state operation never re-allocates.
// (A `q = q[1:]` pop strands the popped element's capacity behind the
// slice and forces append to grow a fresh array every cycle — this was
// the single largest allocation source in the experiment hot path.)
type Chan[T any] struct {
	k      *Kernel
	name   string
	queue  []T
	qhead  int
	recvrs []waiterRef
	rhead  int
	closed bool
}

// NewChan creates a channel on kernel k. The name appears in diagnostics.
func NewChan[T any](k *Kernel, name string) *Chan[T] {
	return &Chan[T]{k: k, name: name}
}

// Name returns the channel's diagnostic name.
func (c *Chan[T]) Name() string { return c.name }

// Len returns the number of queued (sent but not received) values.
func (c *Chan[T]) Len() int { return len(c.queue) - c.qhead }

// Closed reports whether Close has been called.
func (c *Chan[T]) Closed() bool { return c.closed }

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
// Send never blocks. Sending on a closed channel panics, as with Go
// channels.
func (c *Chan[T]) Send(v T) {
	if c.closed {
		panic("sim: send on closed channel " + c.name)
	}
	c.queue = append(c.queue, v)
	c.wakeOne(nil)
}

// Close marks the channel closed. Blocked and future receivers get
// ErrClosed once the queue is drained; queued values remain receivable.
func (c *Chan[T]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	// Wake every blocked receiver: those beyond the queued values will
	// observe the closure.
	for len(c.recvrs) > c.rhead {
		c.wakeOne(ErrClosed)
	}
}

// wakeOne delivers to the longest-blocked live waiter, if any. Waiters
// whose episode lapsed (receiver timed out or moved on) are skipped.
func (c *Chan[T]) wakeOne(err error) {
	for len(c.recvrs) > c.rhead {
		w := c.recvrs[c.rhead]
		c.recvrs[c.rhead] = waiterRef{}
		c.rhead++
		if c.rhead == len(c.recvrs) {
			c.recvrs = c.recvrs[:0]
			c.rhead = 0
		}
		if w.t.deliver(w.seq, err) {
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

// Recv blocks the process until a value is available, returning it.
// It returns ErrClosed if the channel is closed and drained, ErrInterrupted
// if the process is interrupted, or ErrShutdown panics through.
func (c *Chan[T]) Recv(p *Proc) (T, error) {
	return c.RecvDeadline(p, Infinity)
}

// RecvTimeout is Recv with a relative timeout; it returns ErrTimeout if no
// value arrives within d.
func (c *Chan[T]) RecvTimeout(p *Proc, d Duration) (T, error) {
	return c.RecvDeadline(p, p.t.k.now+d)
}

// RecvDeadline is Recv with an absolute deadline (Infinity = wait forever).
func (c *Chan[T]) RecvDeadline(p *Proc, deadline Time) (T, error) {
	var zero T
	for {
		if c.Len() > 0 {
			return c.popQueue(), nil
		}
		if c.closed {
			return zero, ErrClosed
		}
		if deadline <= p.t.k.now {
			return zero, ErrTimeout
		}
		seq := p.blockBegin("Recv", c.name)
		c.recvrs = append(c.recvrs, waiterRef{t: &p.t, seq: seq})
		if deadline < Infinity {
			p.t.armTimer(seq, deadline, ErrTimeout)
		}
		if err := p.park(); err != nil {
			// On timeout/interrupt a value may have raced in via wakeOne
			// before the timer fired; the loop re-checks the queue first,
			// so nothing is lost — but a wake consumed by a dying waiter
			// must be passed on.
			c.dropWaiter(&p.t, seq)
			if c.Len() > 0 {
				c.wakeOne(nil)
			}
			return zero, err
		}
		// Woken for a value (or closure): loop re-checks.
	}
}

// TryRecv returns a queued value without blocking. ok is false when the
// queue is empty.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if c.Len() == 0 {
		var zero T
		return zero, false
	}
	return c.popQueue(), true
}
