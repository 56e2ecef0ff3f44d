package chunk

import "testing"

func TestListAppendsInPlace(t *testing.T) {
	var l List[int]
	if l.Len() != 0 || l.Slice() != nil {
		t.Fatal("zero List not empty")
	}
	const n = 3*Size + 5
	l.Append(0)
	first := l.At(0)
	for i := 1; i < n; i++ {
		l.Append(i)
	}
	if l.At(0) != first {
		t.Fatal("appends moved the first event")
	}
	if l.Len() != n {
		t.Fatalf("Len = %d, want %d", l.Len(), n)
	}
	for _, i := range []int{0, Size - 1, Size, 2*Size + 7, n - 1} {
		if *l.At(i) != i {
			t.Fatalf("At(%d) = %d", i, *l.At(i))
		}
	}
	flat := l.Slice()
	if len(flat) != n || flat[Size] != Size || flat[n-1] != n-1 {
		t.Fatalf("Slice has %d events, [Size]=%d, last %d", len(flat), flat[Size], flat[n-1])
	}
}
