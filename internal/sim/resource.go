package sim

import "fmt"

// Resource is a counting semaphore with FIFO queueing, used to serialize
// access to shared facilities such as a serial link or the CPU. Capacity 1
// gives a mutex.
type Resource struct {
	k        *Kernel
	name     string
	capacity int
	inUse    int
	waiters  []*resWaiter
}

type resWaiter struct {
	t       *Task
	seq     uint64
	n       int
	dead    bool
	granted bool
}

// NewResource creates a resource with the given capacity (> 0).
func NewResource(k *Kernel, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q capacity %d", name, capacity))
	}
	return &Resource{k: k, name: name, capacity: capacity}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the total capacity.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the currently-held units.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of blocked acquirers.
func (r *Resource) QueueLen() int {
	n := 0
	for _, w := range r.waiters {
		if !w.dead {
			n++
		}
	}
	return n
}

// Acquire obtains one unit, blocking in FIFO order until available.
func (r *Resource) Acquire(p *Proc) error { return r.AcquireN(p, 1) }

// AcquireN obtains n units (n ≤ capacity), blocking until all are
// available at once.
func (r *Resource) AcquireN(p *Proc, n int) error {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: acquire %d of resource %q with capacity %d", n, r.name, r.capacity))
	}
	// FIFO fairness: even if units are free, queue behind earlier waiters.
	if r.inUse+n <= r.capacity && r.QueueLen() == 0 {
		r.inUse += n
		return nil
	}
	w := &resWaiter{t: &p.t, n: n}
	w.seq = p.blockBegin("Acquire", r.name)
	r.waiters = append(r.waiters, w)
	if err := p.park(); err != nil {
		if w.granted {
			// The grant raced with the interrupt and already charged our
			// units; hand them back (this also wakes the next waiter).
			r.Release(n)
		} else {
			w.dead = true
			r.grant()
		}
		return err
	}
	return nil
}

// Release returns n units and wakes eligible waiters in FIFO order.
func (r *Resource) Release(n int) {
	if n <= 0 || r.inUse-n < 0 {
		panic(fmt.Sprintf("sim: release %d of resource %q with %d in use", n, r.name, r.inUse))
	}
	r.inUse -= n
	r.grant()
}

// grant admits queued waiters while capacity allows, preserving order:
// a large request at the head blocks smaller ones behind it (no barging).
func (r *Resource) grant() {
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		if w.dead {
			r.waiters = r.waiters[1:]
			continue
		}
		if r.inUse+w.n > r.capacity {
			return
		}
		r.waiters = r.waiters[1:]
		r.inUse += w.n
		w.granted = true
		w.t.deliver(w.seq, nil)
	}
}
