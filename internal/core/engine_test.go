package core

import (
	"context"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"dvsim/internal/governor"
	"dvsim/internal/topology"
)

// engineSpecs are the runs whose kernel event counts pin the engine's
// schedule: every paper experiment to exhaustion, the governed 3A
// pipeline, and one tree and one mesh fleet.
func engineSpecs() []struct {
	name   string
	spec   Spec
	events uint64
} {
	p := DefaultParams()
	pg := p
	pg.Governor = governor.Spec{Name: "pid"}
	pf := p
	pf.RotationPeriod = 0
	exp := func(id ID) Spec { return Spec{ID: id, Params: p} }
	return []struct {
		name   string
		spec   Spec
		events uint64
	}{
		{"0A", exp(Exp0A), 22257},
		{"0B", exp(Exp0B), 42221},
		{"1", exp(Exp1), 137774},
		{"1A", exp(Exp1A), 172519},
		{"2", exp(Exp2), 409419},
		{"2A", exp(Exp2A), 418948},
		{"2B", exp(Exp2B), 606394},
		{"2C", exp(Exp2C), 509017},
		{"2D", exp(Exp2D), 563613},
		{"3A", Spec{ID: Exp3A, Params: pg}, 450910},
		{"tree", Spec{Graph: topology.Tree(2, 2, topology.Config{}), Label: "tree", Params: pf}, 541813},
		{"mesh", Spec{Graph: topology.Mesh(6, 2, topology.Config{}), Label: "mesh", Params: pf}, 528485},
	}
}

// TestKernelEventCounts pins the exact number of kernel events each run
// fires. The count is machine-independent and changes with any shift in
// the event schedule — an added, dropped or merged wakeup — so it is the
// behaviour checksum engine changes are diffed against. The paper
// experiments' counts equal BENCH_kernel.json.
func TestKernelEventCounts(t *testing.T) {
	for _, c := range engineSpecs() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			out := mustSimulate(t, c.spec, Sinks{})
			if out.Events != c.events {
				t.Errorf("%s fired %d kernel events, want %d", c.name, out.Events, c.events)
			}
		})
	}
}

// simulateOK is Simulate for tests that only need it not to fail; a
// cancelled context's error is expected.
func simulateOK(t testing.TB, ctx context.Context, s Spec, sk Sinks) {
	t.Helper()
	if _, err := Simulate(ctx, s, sk); err != nil && ctx.Err() == nil {
		t.Fatal(err)
	}
}

// TestRunStartsNoGoroutines: the engine runs every simulated activity
// as kernel callbacks on the caller's goroutine. The goroutines running
// dvsim code are the same before a run, in the middle of it (sampled
// from the result observer) and after it — for every paper experiment,
// a tree fleet, and a run abandoned through its context. Only
// goroutines with a dvsim frame are compared, so one the runtime starts
// or ends on its own during a run does not read as a change.
func TestRunStartsNoGoroutines(t *testing.T) {
	p := DefaultParams()
	pf := p
	pf.RotationPeriod = 0
	type run struct {
		name   string
		spec   Spec
		cancel int // cancel the context at this result; 0 runs to the end
	}
	var runs []run
	for _, id := range AllExperiments {
		runs = append(runs, run{string(id), Spec{ID: id, Params: p}, 0})
	}
	runs = append(runs,
		run{"tree", Spec{Graph: topology.Tree(2, 2, topology.Config{}), Label: "tree", Params: pf, Frames: 200}, 0},
		run{"cancelled 2", Spec{ID: Exp2, Params: p}, 50},
	)
	for _, r := range runs {
		ctx, cancel := context.WithCancel(context.Background())
		before := settledDvsimGoroutines()
		if len(before) == 0 {
			t.Fatal("no goroutine with a dvsim frame, not even the test's own")
		}
		var during []string
		results := 0
		sk := Sinks{OnResult: func(int, any) {
			if results++; results == 1 {
				during = dvsimGoroutines()
			}
			if results == r.cancel {
				cancel()
			}
		}}
		simulateOK(t, ctx, r.spec, sk)
		after := settledDvsimGoroutines()
		cancel()
		if results > 0 && !slices.Equal(during, before) {
			t.Errorf("%s: dvsim goroutines %v mid-run, %v before", r.name, during, before)
		}
		if !slices.Equal(after, before) {
			t.Errorf("%s: dvsim goroutines %v after the run, %v before", r.name, after, before)
		}
		if r.cancel > 0 && ctx.Err() == nil {
			t.Errorf("%s: the run ended before it was cancelled", r.name)
		}
	}
}

// dvsimGoroutines returns the sorted IDs of the goroutines whose stacks hold a dvsim function frame or were created
// by one.
func dvsimGoroutines() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var ids []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, frames, _ := strings.Cut(g, "\n")
		id, _, _ := strings.Cut(strings.TrimPrefix(header, "goroutine "), " ")
		for _, line := range strings.Split(frames, "\n") {
			if strings.HasPrefix(strings.TrimPrefix(line, "created by "), "dvsim/") {
				ids = append(ids, id)
				break
			}
		}
	}
	slices.Sort(ids)
	return ids
}

// settledDvsimGoroutines is dvsimGoroutines once the set holds still,
// so dvsim goroutines an earlier test left exiting do not read as a
// change.
func settledDvsimGoroutines() []string {
	ids := dvsimGoroutines()
	for stable, i := 0, 0; stable < 10 && i < 1000; i++ {
		runtime.Gosched()
		if now := dvsimGoroutines(); !slices.Equal(now, ids) {
			ids, stable = now, 0
		} else {
			stable++
		}
	}
	return ids
}

// settledGoroutines counts goroutines once the count holds still, so
// goroutines an earlier test left exiting do not read as a change.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for stable, i := 0, 0; stable < 10 && i < 1000; i++ {
		runtime.Gosched()
		if m := runtime.NumGoroutine(); m != n {
			n, stable = m, 0
		} else {
			stable++
		}
	}
	return n
}

// allocBounds are the heap allocations of one run of each paper
// experiment, exact with the collector off. Every bound is below the
// count measured before the engine became goroutine-free (0A 47, 0B 46,
// 1 108, 1A 108, 2 201, 2A 190, 2B 154, 2C 462, and 2D 351–487
// depending on pool hits), below the lazy-cancel queue's (0A 33,
// 0B 33, 1 73, 1A 73, 2 126, 2A 126, 2B 104, 2C 133, 2D 144), whose heap
// grew with its stale entries, and at or below those of the one pending
// FIFO per port with a match closure per node (0A 32, 0B 32, 1 56,
// 1A 56, 2 109, 2A 109, 2B 89, 2C 116, 2D 129): a change that adds an
// allocation to a run fails here.
var allocBounds = map[ID]float64{
	Exp0A: 31, Exp0B: 31, Exp1: 55, Exp1A: 55,
	Exp2: 107, Exp2A: 107, Exp2B: 88, Exp2C: 116, Exp2D: 128,
}

// TestAllocsPerRun bounds each experiment's allocations per run.
// testing.AllocsPerRun pins GOMAXPROCS to 1, and the collector is off
// while it measures, so the count is the run's own and does not move
// with the machine or the GC pacing.
func TestAllocsPerRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment to exhaustion several times")
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own account")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := DefaultParams()
	for _, id := range AllExperiments {
		got := testing.AllocsPerRun(3, func() {
			simulateOK(t, context.Background(), Spec{ID: id, Params: p}, Sinks{})
		})
		if got > allocBounds[id] {
			t.Errorf("%s: %.0f allocs per run, bound %.0f", id, got, allocBounds[id])
		}
	}
	// Logged runs: exp 2D's first hour of telemetry into a discarding
	// writer, plain and checked against a catalog it breaks, so the
	// assertion pass and the violation source run too. The record path
	// allocates per chunk of a store and per merge source, never per
	// record; most of the checked run's count is the assertion
	// monitors' violation details.
	checked := p
	checked.Assertions = loadSpec(t, "broken.json")
	for _, c := range []struct {
		name  string
		p     Params
		bound float64
	}{
		{"2D log", p, 457},
		{"2D log+catalog", checked, 6739},
	} {
		got := testing.AllocsPerRun(3, func() {
			simulateOK(t, context.Background(), Spec{ID: Exp2D, Params: c.p, UntilS: 3600}, Sinks{Log: io.Discard, Telemetry: true})
		})
		if got > c.bound {
			t.Errorf("%s: %.0f allocs per run, bound %.0f", c.name, got, c.bound)
		}
	}
}
