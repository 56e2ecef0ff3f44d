// Package sweep runs independent simulations in parallel. Every
// experiment in this repository is a deterministic, self-contained
// discrete-event simulation, so parameter sweeps and suites are
// embarrassingly parallel: the only care needed is result ordering and
// panic propagation, which this package handles.
package sweep

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Panic carries a worker panic back to Run's or Ordered's caller. The
// re-raised value preserves which input failed, the original panic
// value and the worker goroutine's stack trace — without it the stack
// visible at the caller would point at the pool's bookkeeping, not at
// the failing fn.
type Panic struct {
	// Input is the index (into Run's inputs, or Ordered's i) whose fn
	// panicked.
	Input int
	// Value is the original panic value.
	Value any
	// Stack is the worker goroutine's stack at recovery time.
	Stack []byte
}

func (p *Panic) Error() string {
	return fmt.Sprintf("sweep: input %d panicked: %v\n\nworker stack:\n%s", p.Input, p.Value, p.Stack)
}

// Unwrap exposes the original panic value when it was an error, so
// errors.Is/As see through the sweep wrapper.
func (p *Panic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// Run evaluates fn over every input on up to workers goroutines and
// returns the outputs in input order. workers ≤ 0 selects GOMAXPROCS.
// A panic in any fn is re-raised on the caller's goroutine (after all
// workers have stopped) as a *Panic carrying the failing input index
// and the worker's stack trace, so a failing configuration cannot be
// silently dropped or reduced to an unlocatable value. It is Ordered
// with every input in flight at once.
func Run[I, O any](inputs []I, workers int, fn func(I) O) []O {
	out := make([]O, 0, len(inputs))
	Ordered(len(inputs), workers, len(inputs), func(i int) O { return fn(inputs[i]) }, func(o O) bool {
		out = append(out, o)
		return true
	})
	return out
}

// Ordered evaluates fn(i) for every i in [0, n) on up to workers
// goroutines (≤ 0 selects GOMAXPROCS) and hands each output to emit on
// the caller's goroutine, in index order. At most window indices are in
// flight — started, or finished and not yet emitted — so outputs that
// own buffers can be recycled from emit with at most window of them
// live. Once emit returns false no further fn starts; Ordered returns
// after the running ones finish, dropping their outputs. A panic in fn
// is re-raised on the caller's goroutine as a *Panic once every worker
// has stopped; outputs are emitted up to the failing index, which is
// the lowest one that panicked. No worker outlives Ordered, whether it
// returns or panics. With one worker every fn runs, and panics, on the
// caller's goroutine.
func Ordered[O any](n, workers, window int, fn func(i int) O, emit func(O) bool) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n && emit(fn(i)); i++ {
		}
		return
	}
	window = max(window, workers)
	// Index i computes into outs[i%window] and reports on ready[i%window].
	// The window bound keeps both slots free until i is issued: i-window
	// was emitted first.
	outs := make([]O, window)
	ready := make([]chan *Panic, window)
	for k := range ready {
		ready[k] = make(chan *Panic, 1)
	}
	// next is sized to the window: at most window indices are issued and
	// not yet emitted, so issuing never blocks the caller, who must be
	// free to emit.
	next := make(chan int, window)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:allow nakedgo worker pool over independent work items (whole simulations, or time shards of one finished run log); no kernel is shared between workers and outputs merge in input order
		go func() {
			defer wg.Done()
			for i := range next {
				var p *Panic
				if !stop.Load() {
					func() {
						defer func() {
							if r := recover(); r != nil {
								// Capture the stack here, on the worker,
								// while the failing frames are still below us.
								p = &Panic{Input: i, Value: r, Stack: debug.Stack()}
							}
						}()
						outs[i%window] = fn(i)
					}()
				}
				ready[i%window] <- p
			}
		}()
	}

	issued, taken := 0, 0
	defer func() {
		// Runs on every exit, a panic in emit included: stop the
		// workers and collect the report of every issued index, so none
		// is left blocked or running.
		stop.Store(true)
		close(next)
		for ; taken < issued; taken++ {
			<-ready[taken%window]
		}
		wg.Wait()
	}()
	for taken < n {
		for ; issued < n && issued-taken < window; issued++ {
			next <- issued
		}
		k := taken % window
		p := <-ready[k]
		taken++
		if p != nil {
			panic(p)
		}
		out := outs[k]
		var zero O
		outs[k] = zero
		if !emit(out) {
			return
		}
	}
}

// Dim is one swept dimension.
type Dim struct {
	Name   string
	Values []float64
}

// Point is one grid configuration: dimension name → value.
type Point map[string]float64

// Grid returns the cross product of the dimensions, ordered with the
// first dimension varying slowest (row-major).
func Grid(dims ...Dim) []Point {
	if len(dims) == 0 {
		return nil
	}
	for _, d := range dims {
		if len(d.Values) == 0 {
			return nil
		}
	}
	total := 1
	for _, d := range dims {
		total *= len(d.Values)
	}
	out := make([]Point, total)
	for i := range out {
		p := make(Point, len(dims))
		rem := i
		for k := len(dims) - 1; k >= 0; k-- {
			d := dims[k]
			p[d.Name] = d.Values[rem%len(d.Values)]
			rem /= len(d.Values)
		}
		out[i] = p
	}
	return out
}

// Map applies fn to every grid point in parallel, pairing each point with
// its output.
type Result[O any] struct {
	Point Point
	Out   O
}

// Map evaluates fn over the grid on up to workers goroutines.
func Map[O any](grid []Point, workers int, fn func(Point) O) []Result[O] {
	outs := Run(grid, workers, fn)
	res := make([]Result[O], len(grid))
	for i := range grid {
		res[i] = Result[O]{Point: grid[i], Out: outs[i]}
	}
	return res
}
