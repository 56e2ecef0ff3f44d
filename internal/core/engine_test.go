package core

import (
	"context"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"dvsim/internal/fault"
	"dvsim/internal/governor"
	telem "dvsim/internal/telemetry"
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
// behaviour checksum engine changes are diffed against.
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

// allocBounds are the heap allocations and bytes of one run of each
// paper experiment. The allocation bounds are the exact counts measured
// with the collector off on linux/amd64 with Go 1.24, identical from
// run to run: a change that adds one allocation to a run fails here,
// and one that removes an allocation should lower its bound. Each bytes
// bound is 1.10× the bytes measured there (0A and 0B 4,213, 1 and 1A
// 9,690, 2 and 2A 242,096, 2B 14,120, 2C 241,712, 2D 1,907,272),
// rounded down to tens, so a change that makes a run's allocations larger
// fails too.
var allocBounds = map[ID]struct{ allocs, bytes uint64 }{
	Exp0A: {30, 4630}, Exp0B: {30, 4630}, Exp1: {51, 10650}, Exp1A: {51, 10650},
	Exp2: {102, 266300}, Exp2A: {102, 266300}, Exp2B: {83, 15530},
	Exp2C: {111, 265880}, Exp2D: {123, 2097990},
}

// perRun is testing.AllocsPerRun reporting heap bytes too: one warm-up
// call, then the mean allocations and bytes of runs calls on procs Ps.
func perRun(procs, runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestAllocsPerRun bounds each run's allocations and heap bytes.
// Runs are measured with GOMAXPROCS pinned to 1 and the collector off,
// so the counts are the run's own and do not move with the machine or
// the GC pacing. Every run's allocation bound is the exact measured
// count; every bytes bound is 1.10× the measured bytes. The sharded
// log writer, which needs more than one processor, has the last row.
func TestAllocsPerRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment to exhaustion several times")
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own account")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	bound := func(name string, maxAllocs, maxBytes uint64, run func()) {
		t.Helper()
		if allocs, bytes := perRun(1, 3, run); allocs > maxAllocs || bytes > maxBytes {
			t.Errorf("%s: %d allocs, %d bytes per run; bounds %d, %d", name, allocs, bytes, maxAllocs, maxBytes)
		}
	}
	p := DefaultParams()
	for _, id := range AllExperiments {
		b := allocBounds[id]
		bound(string(id), b.allocs, b.bytes, func() {
			simulateOK(t, context.Background(), Spec{ID: id, Params: p}, Sinks{})
		})
	}
	// Engine paths no paper experiment takes: a tree fleet (graph
	// wiring, fan-in gathering), a pid-governed 3A run (the governor's
	// frame-boundary loop) and 2D under a crash and restart of each
	// node (the outage, the restart and the source's fast-forward past
	// the frames it missed). Measured: tree 24,256 bytes, 3A 39,048,
	// crash/restart 70,880.
	specs := map[string]Spec{}
	for _, c := range engineSpecs() {
		specs[c.name] = c.spec
	}
	bound("tree", 137, 26680, func() {
		simulateOK(t, context.Background(), specs["tree"], Sinks{})
	})
	bound("3A", 96, 42950, func() {
		simulateOK(t, context.Background(), specs["3A"], Sinks{})
	})
	crash, err := fault.LoadFile("../../scenarios/crashrestart.json")
	if err != nil {
		t.Fatal(err)
	}
	pc := p
	pc.Faults = crash
	bound("2D crash/restart", 114, 77960, func() {
		simulateOK(t, context.Background(), Spec{ID: Exp2D, Params: pc}, Sinks{})
	})
	// Exp 2 under a cancellable context, as every service job runs: it
	// arms the kernel's cancel check and the context poll. The context
	// is made inside the measured function, so its own allocations
	// count too. Measured: 242,328 bytes.
	bound("2 cancellable", 106, 266560, func() {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		simulateOK(t, ctx, Spec{ID: Exp2, Params: p}, Sinks{})
	})
	// Logged runs: exp 2D's first hour of telemetry into a discarding
	// writer, plain and checked against a catalog it breaks, so the
	// assertion pass and the violation source run too. The record path
	// allocates per chunk of a store and per merge source, never per
	// record; most of the checked run's count is the assertion
	// monitors' violation details. Measured bytes: 1,658,133 plain and
	// 1,930,629 checked.
	checked := p
	checked.Assertions = loadSpec(t, "broken.json")
	bound("2D log", 366, 1823940, func() {
		simulateOK(t, context.Background(), Spec{ID: Exp2D, Params: p, UntilS: 3600}, Sinks{Log: io.Discard, Telemetry: true})
	})
	bound("2D log+catalog", 6648, 2123690, func() {
		simulateOK(t, context.Background(), Spec{ID: Exp2D, Params: checked, UntilS: 3600}, Sinks{Log: io.Discard, Telemetry: true})
	})
	// writeShards at two processors over 16 shards of a synthetic log.
	// It allocates per shardWork, never per record: one costs 30
	// allocations and 778,720 bytes. A pass measured 139-140
	// allocations and 3,116,016-3,116,464 bytes. How many shardWorks a
	// pass makes depends on when emit hands one back to free, which is
	// goroutine timing, so each bound is the measured worst case plus
	// one window (2·workers) of shardWorks. A heap escape per record
	// adds one allocation per record, 65,536 here.
	n := 2 * minShards * shardRecords
	m := &merger{srcs: []source{{rank: eventRank("sample"), n: n, load: func(i int, rec *telem.Record) {
		*rec = telem.Record{T: float64(i / 3), Event: "sample", Metric: "x", Value: float64(i)}
	}}}}
	bounds := m.shards()
	const maxAllocs, maxBytes = 140 + 4*30, 3116464 + 4*778720
	if allocs, bytes := perRun(2, 3, func() { writeShards(io.Discard, m, bounds, 2) }); allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("writeShards: %d allocs, %d bytes per pass; bounds %d, %d", allocs, bytes, maxAllocs, maxBytes)
	}
}
