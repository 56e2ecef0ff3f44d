package sweep

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestRunPreservesOrder(t *testing.T) {
	in := make([]int, 100)
	for i := range in {
		in[i] = i
	}
	out := Run(in, 8, func(x int) int { return x * x })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	if got := Run(nil, 4, func(x int) int { return x }); len(got) != 0 {
		t.Fatal("empty input")
	}
	if got := Run([]int{7}, 4, func(x int) int { return x + 1 }); got[0] != 8 {
		t.Fatal("single input")
	}
}

func TestRunDefaultsWorkers(t *testing.T) {
	out := Run([]int{1, 2, 3}, 0, func(x int) int { return -x })
	if out[2] != -3 {
		t.Fatal("workers<=0 should still run")
	}
}

func TestRunActuallyParallel(t *testing.T) {
	// With 4 workers, 4 tasks that each wait for the others must finish;
	// a sequential runner would deadlock (guarded by timeout).
	var wg sync.WaitGroup
	wg.Add(4)
	done := make(chan struct{})
	go func() {
		Run([]int{0, 1, 2, 3}, 4, func(int) int {
			wg.Done()
			wg.Wait() // requires all four running at once
			return 0
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("workers did not run concurrently")
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	var active, peak int64
	Run(make([]int, 64), 3, func(int) int {
		n := atomic.AddInt64(&active, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt64(&active, -1)
		return 0
	})
	if peak > 3 {
		t.Fatalf("peak concurrency %d > 3", peak)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic swallowed")
		}
		p, ok := r.(*Panic)
		if !ok {
			t.Fatalf("panic payload %T, want *Panic", r)
		}
		if p.Input != 5 {
			t.Errorf("Input = %d, want 5", p.Input)
		}
		if p.Value != "boom" {
			t.Errorf("Value = %v, want boom", p.Value)
		}
		// The stack must point at the failing fn, not at Run's
		// bookkeeping goroutine plumbing.
		if !strings.Contains(string(p.Stack), "sweep_test.go") {
			t.Errorf("worker stack does not reach the failing fn:\n%s", p.Stack)
		}
		if !strings.Contains(p.Error(), "boom") || !strings.Contains(p.Error(), "input 5") {
			t.Errorf("Error() = %q", p.Error())
		}
	}()
	Run([]int{0, 1, 2, 3, 4, 5, 6, 7}, 4, func(x int) int {
		if x == 5 {
			panic("boom")
		}
		return x
	})
}

func TestRunPanicPrefersLowestInput(t *testing.T) {
	// With several failing inputs the re-raised panic is the lowest
	// input index, independent of worker scheduling.
	for trial := 0; trial < 20; trial++ {
		func() {
			defer func() {
				p, ok := recover().(*Panic)
				if !ok || p.Input != 2 {
					t.Fatalf("recovered %v, want input 2", p)
				}
			}()
			Run([]int{0, 1, 2, 3, 4, 5, 6, 7}, 4, func(x int) int {
				if x >= 2 {
					panic(x)
				}
				return x
			})
		}()
	}
}

func TestRunPanicUnwrapsError(t *testing.T) {
	sentinel := errStr("kaput")
	defer func() {
		p, ok := recover().(*Panic)
		if !ok {
			t.Fatal("want *Panic")
		}
		if p.Unwrap() != sentinel {
			t.Fatalf("Unwrap() = %v, want %v", p.Unwrap(), sentinel)
		}
	}()
	Run([]int{0, 1}, 2, func(x int) int {
		if x == 1 {
			panic(sentinel)
		}
		return x
	})
}

type errStr string

func (e errStr) Error() string { return string(e) }

// Property: parallel Run equals sequential map for any inputs/workers.
func TestPropertyRunEqualsSequential(t *testing.T) {
	f := func(in []int16, workersRaw uint8) bool {
		workers := int(workersRaw%9) + 1
		fn := func(x int16) int { return int(x)*3 + 1 }
		par := Run(in, workers, fn)
		for i, v := range in {
			if par[i] != fn(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOrderedEmitsInOrderWithinWindow(t *testing.T) {
	const n, window = 200, 6
	var inFlight, peak atomic.Int64
	var got []int
	Ordered(n, 3, window, func(i int) int {
		p := inFlight.Add(1)
		for {
			old := peak.Load()
			if p <= old || peak.CompareAndSwap(old, p) {
				break
			}
		}
		if i%7 == 0 {
			time.Sleep(100 * time.Microsecond) // finish out of order
		}
		return i * i
	}, func(v int) bool {
		got = append(got, v)
		inFlight.Add(-1)
		return true
	})
	if len(got) != n {
		t.Fatalf("emitted %d outputs, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("output %d = %d, want %d", i, v, i*i)
		}
	}
	if p := peak.Load(); p > window {
		t.Fatalf("%d indices in flight at once, window %d", p, window)
	}
}

func TestOrderedStopsWhenEmitDeclines(t *testing.T) {
	before := runtime.NumGoroutine()
	var started atomic.Int64
	var emitted []int
	Ordered(1000, 4, 8, func(i int) int {
		started.Add(1)
		return i
	}, func(i int) bool {
		emitted = append(emitted, i)
		return i < 10
	})
	if len(emitted) != 11 || emitted[10] != 10 {
		t.Fatalf("emitted %v, want 0…10", emitted)
	}
	// Nothing starts past the window once emit declines.
	if s := started.Load(); s > 11+8 {
		t.Fatalf("%d inputs started, want at most %d", s, 11+8)
	}
	waitGoroutines(t, before)
}

func TestOrderedPanicStopsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	var emitted []int
	defer func() {
		p, ok := recover().(*Panic)
		if !ok || p.Input != 5 || p.Value != "boom" {
			t.Fatalf("recovered %v, want input 5's panic", p)
		}
		if len(emitted) != 5 {
			t.Fatalf("emitted %v before the panic, want inputs 0…4", emitted)
		}
		waitGoroutines(t, before)
	}()
	Ordered(100, 3, 6, func(i int) int {
		if i == 5 || i == 7 {
			panic("boom")
		}
		return i
	}, func(i int) bool {
		emitted = append(emitted, i)
		return true
	})
	t.Fatal("Ordered returned over a panicking input")
}

func TestOrderedOneWorkerRunsOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	var got []int
	Ordered(5, 1, 4, func(i int) int {
		if n := runtime.NumGoroutine(); n != before {
			t.Errorf("%d goroutines while running input %d, %d before", n, i, before)
		}
		return i
	}, func(i int) bool {
		got = append(got, i)
		return true
	})
	if len(got) != 5 || got[4] != 4 {
		t.Fatalf("emitted %v", got)
	}
}

// waitGoroutines fails unless the goroutine count returns to want.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for i := 0; i < 1000 && runtime.NumGoroutine() != want; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n != want {
		t.Fatalf("%d goroutines, want %d", n, want)
	}
}
