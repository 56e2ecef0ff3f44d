package service

import (
	"io"
	"net/http"
	"sync"
)

// streamChunk is the size of one stream chunk. A full-window log of a
// few megabytes is a few dozen chunks; a short run fits in one.
const streamChunk = 64 << 10

// stream is a broadcast buffer: one writer (the worker running the
// simulation) appends the artifact's bytes as the run produces them,
// any number of followers copy them out concurrently — this is what
// lets a cache-miss submission stream JSONL over a chunked response
// while the simulation is still going, and lets a coalesced request
// watch the same run live instead of waiting for it to finish.
//
// The bytes live in a list of fixed-size chunks, in the manner of
// internal/chunk: an append fills the last chunk and starts a fresh one
// when it is full, so no byte is ever copied twice or moved once
// written, and followers read each chunk in place. A chunk's slice
// header never changes after it is added (the fill level is n), so a
// follower may hold the list it saw under the lock and read the bytes
// below n without it. Once closed, the stream is the artifact the cache
// stores.
type stream struct {
	mu     sync.Mutex
	cond   *sync.Cond
	chunks [][]byte // each streamChunk long, filled up to n
	n      int64    // bytes written
	done   bool
}

func newStream() *stream {
	st := &stream{}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// Write appends produced bytes and wakes followers. It never fails:
// the stream is an elastic buffer, backpressure is not its job.
func (st *stream) Write(p []byte) (int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := len(p)
	for len(p) > 0 {
		off := st.n % streamChunk
		if off == 0 { // every chunk is full
			st.chunks = append(st.chunks, make([]byte, streamChunk))
		}
		k := copy(st.chunks[st.n/streamChunk][off:], p)
		p = p[k:]
		st.n += int64(k)
	}
	st.cond.Broadcast()
	return n, nil
}

// close marks the stream complete (successfully or not) and releases
// every follower.
func (st *stream) close() {
	st.mu.Lock()
	st.done = true
	st.cond.Broadcast()
	st.mu.Unlock()
}

// parts returns the written bytes as slices of the chunks, in order.
// Call it once the stream is closed.
func (st *stream) parts() [][]byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([][]byte, len(st.chunks))
	for i, c := range st.chunks {
		out[i] = c[:min(streamChunk, st.n-int64(i)*streamChunk)]
	}
	return out
}

// follow copies the stream to w from the beginning, flushing after
// every batch of new bytes, until the stream closes or the write fails
// (client went away). It returns the number of bytes written. The
// bytes below the length seen under the lock never change, so they are
// written straight from their chunks with the lock released.
func (st *stream) follow(w io.Writer) (int64, error) {
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	var off int64
	for {
		st.mu.Lock()
		for st.n <= off && !st.done {
			st.cond.Wait()
		}
		end, done := st.n, st.done
		chunks := st.chunks
		st.mu.Unlock()
		if off == end {
			return off, nil // done, and every byte is out
		}
		for off < end {
			lo := off % streamChunk
			hi := min(streamChunk, lo+end-off)
			n, err := w.Write(chunks[off/streamChunk][lo:hi])
			off += int64(n)
			if err != nil {
				return off, err
			}
		}
		flush()
		if done {
			return off, nil
		}
	}
}
