package service

import (
	"errors"
	"testing"
)

func qjob(p Priority, key string) *job {
	return &job{key: key, priority: p, state: StateQueued, done: make(chan struct{})}
}

// TestQueuePriorityOrder: interactive jobs overtake the whole bulk
// backlog, FIFO within a level.
func TestQueuePriorityOrder(t *testing.T) {
	q := newQueue(8)
	for _, j := range []*job{
		qjob(Bulk, "b1"), qjob(Bulk, "b2"),
		qjob(Interactive, "i1"), qjob(Interactive, "i2"),
	} {
		if err := q.push(j); err != nil {
			t.Fatal(err)
		}
	}
	q.close()
	var got []string
	for {
		j, ok := q.pop()
		if !ok {
			break
		}
		got = append(got, j.key)
	}
	want := []string{"i1", "i2", "b1", "b2"}
	if len(got) != len(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}
}

// TestQueueBoundsBacklog: a full queue rejects with ErrQueueFull, and
// a closed queue rejects everything.
func TestQueueBoundsBacklog(t *testing.T) {
	q := newQueue(1)
	if err := q.push(qjob(Bulk, "b1")); err != nil {
		t.Fatal(err)
	}
	if err := q.push(qjob(Bulk, "b2")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull push: %v", err)
	}
	q.close()
	if err := q.push(qjob(Interactive, "i1")); err == nil {
		t.Fatal("push after close accepted")
	}
	// The backlog drains even after close.
	if j, ok := q.pop(); !ok || j.key != "b1" {
		t.Fatalf("drain pop = %v, %v", j, ok)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("empty closed queue returned a job")
	}
}
