package service

import (
	"context"
	"errors"
	"sync"
)

// Priority is a submission's scheduling class. Interactive runs —
// someone is watching the stream — always dispatch before Bulk sweeps,
// so a long manifest cannot starve a quick single run.
type Priority int

const (
	Interactive Priority = iota
	Bulk
	numPriorities
)

// ParsePriority maps a submission's priority field; empty defaults to
// Interactive.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "interactive":
		return Interactive, nil
	case "bulk":
		return Bulk, nil
	default:
		return 0, errors.New("priority must be \"interactive\" or \"bulk\"")
	}
}

func (p Priority) String() string {
	if p == Bulk {
		return "bulk"
	}
	return "interactive"
}

// ErrQueueFull rejects submissions past the configured backlog bound:
// the server sheds load explicitly (HTTP 503) instead of buffering
// without limit.
var ErrQueueFull = errors.New("service: queue full")

// errQueueClosed fails pushes after shutdown began.
var errQueueClosed = errors.New("service: queue closed")

// queue is the bounded two-level priority queue feeding the worker
// pool. Within a level, jobs dispatch FIFO.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	levels [numPriorities][]*job
	size   int
	max    int
	closed bool
}

func newQueue(max int) *queue {
	q := &queue{max: max}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a job, failing fast when the backlog bound is reached
// or shutdown has begun.
func (q *queue) push(j *job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errQueueClosed
	}
	if q.size >= q.max {
		return ErrQueueFull
	}
	q.levels[j.priority] = append(q.levels[j.priority], j)
	q.size++
	q.cond.Signal()
	return nil
}

// pop blocks until a job is available, always draining the interactive
// level first. It returns false only when the queue is closed and
// empty — the worker-pool exit condition, which is what makes shutdown
// drain the backlog instead of dropping it.
func (q *queue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for p := range q.levels {
			if len(q.levels[p]) > 0 {
				j := q.levels[p][0]
				q.levels[p] = q.levels[p][1:]
				q.size--
				return j, true
			}
		}
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

// close stops intake and wakes every blocked worker.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// depth reports the current backlog per level.
func (q *queue) depth() (interactive, bulk int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.levels[Interactive]), len(q.levels[Bulk])
}

// Job states, in lifecycle order.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// job is one unit of work on the pool: a resolved submission bound for
// the cache. The zero fields fill in as it moves through its lifecycle.
type job struct {
	id       string
	key      string // cache key of the job's artifact
	kind     string // "run" or "sweep"
	desc     string // human label for listings
	priority Priority

	// run produces the artifact into stream; the worker calls it once.
	run func(ctx context.Context, j *job) error

	cancel context.CancelFunc
	ctx    context.Context

	mu sync.Mutex
	// stream broadcasts the artifact's bytes as the run produces them.
	// A done job drops it (its artifact is in the cache); a failed or
	// cancelled one keeps what the run wrote.
	stream    *stream
	state     string
	err       error
	cacheHits int // sweep lines served from cache
	lines     int // sweep lines total
	done      chan struct{}
}

func (j *job) setState(s string) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

// live returns the job's stream, or nil once the job is done.
func (j *job) live() *stream {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stream
}

// finish records the terminal state exactly once and releases waiters.
// A done job keeps its status and cache key, and no bytes.
func (j *job) finish(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.run = nil
	switch {
	case err == nil:
		j.state = StateDone
		j.stream = nil
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.err = err
	default:
		j.state = StateFailed
		j.err = err
	}
	close(j.done)
}

// snapshot returns the job's externally visible status.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:       j.id,
		Key:      j.key,
		Kind:     j.kind,
		Desc:     j.desc,
		Priority: j.priority.String(),
		State:    j.state,
		Lines:    j.lines,
		LineHits: j.cacheHits,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// JobStatus is the wire form of a job's state.
type JobStatus struct {
	ID       string `json:"id"`
	Key      string `json:"key"`
	Kind     string `json:"kind"`
	Desc     string `json:"desc,omitempty"`
	Priority string `json:"priority"`
	State    string `json:"state"`
	Lines    int    `json:"lines,omitempty"`
	LineHits int    `json:"line_hits,omitempty"`
	Error    string `json:"error,omitempty"`
}
