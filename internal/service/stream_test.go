package service

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// TestStreamFollowersSeeEveryByte: writes of every size, across chunk
// boundaries, reach followers that attach before, during and after the
// run byte for byte, and the closed stream's parts are the same bytes.
func TestStreamFollowersSeeEveryByte(t *testing.T) {
	want := make([]byte, 5*streamChunk+123)
	rand.New(rand.NewSource(1)).Read(want)

	st := newStream()
	got := make([]bytes.Buffer, 3)
	var wg sync.WaitGroup
	follow := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n, err := st.follow(&got[i]); err != nil || n != int64(len(want)) {
				t.Errorf("follower %d: %d bytes, %v", i, n, err)
			}
		}()
	}
	follow(0)
	for off, i := 0, 0; off < len(want); i++ {
		n := min(len(want)-off, []int{0, 1, 7, streamChunk - 1, streamChunk, 3 * streamChunk / 2}[i%6])
		st.Write(want[off : off+n])
		off += n
		if i == 3 {
			follow(1)
		}
	}
	st.close()
	follow(2)
	wg.Wait()
	for i := range got {
		if !bytes.Equal(got[i].Bytes(), want) {
			t.Errorf("follower %d read %d bytes that differ from the %d written", i, got[i].Len(), len(want))
		}
	}
	if parts := bytes.Join(st.parts(), nil); !bytes.Equal(parts, want) {
		t.Errorf("parts hold %d bytes that differ from the %d written", len(parts), len(want))
	}
}
