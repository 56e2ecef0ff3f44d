// Package chunk is the append-only event store behind the run log's
// sources: a list of fixed-size chunks. A long run records hundreds of
// thousands of events into a handful of such lists (each node's mode
// trace, the recorder's hook buckets); a plain slice regrown by append
// would copy every earlier event on each growth step and briefly hold
// both copies, where a chunk list allocates one fresh chunk per Size
// events and never moves an event once appended. Readers index the
// chunks in place.
package chunk

// Size is the number of events per chunk. At the run log's 40–64-byte
// events a chunk is 40–64 KB.
const Size = 1 << sizeBits

const (
	sizeBits = 10
	sizeMask = Size - 1
)

// List is an append-only sequence of events stored in chunks of Size.
// The zero List is empty and ready to use. Reads may run on several
// goroutines at once once appends have stopped.
type List[E any] struct {
	chunks [][]E
	n      int
}

// Append adds e at the end of the list.
func (l *List[E]) Append(e E) {
	if l.n&sizeMask == 0 {
		l.chunks = append(l.chunks, make([]E, 0, Size))
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, e)
	l.n++
}

// Len returns the number of events in the list.
func (l *List[E]) Len() int { return l.n }

// At returns the i-th event in place.
func (l *List[E]) At(i int) *E { return &l.chunks[i>>sizeBits][i&sizeMask] }

// Slice returns the events as one new slice, in order; nil when the
// list is empty.
func (l *List[E]) Slice() []E {
	if l.n == 0 {
		return nil
	}
	out := make([]E, 0, l.n)
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	return out
}
