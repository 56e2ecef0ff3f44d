package metrics

import (
	"testing"

	"dvsim/internal/sim"
)

func TestGaugeSemantics(t *testing.T) {
	r := New(sim.NewKernel())
	g := r.Gauge("depth", "")
	g.Set(4)
	g.Set(3)
	if r.Gauge("depth", "") != g {
		t.Fatal("same key returned a different gauge")
	}
	if r.Gauge("depth", "node1") == g {
		t.Fatal("different node shared a gauge")
	}
	gs := r.Snapshot().Gauges
	if len(gs) != 1 || gs[0].Value != 3 {
		t.Fatalf("gauges %+v, want depth = 3, the last level set", gs)
	}
}

func TestHistogramSemantics(t *testing.T) {
	r := New(sim.NewKernel())
	h := r.Histogram("latency", "node1", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1.0, 1.5, 3, 10} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("%d histograms in snapshot", len(snap.Histograms))
	}
	hv := snap.Histograms[0]
	if hv.Count != 5 || hv.Sum != 16 {
		t.Fatalf("count, sum = %d, %v; want 5, 16", hv.Count, hv.Sum)
	}
	// Buckets: ≤1, ≤2, ≤5, +Inf. Observations 0.5 and 1.0 land in ≤1.
	want := []uint64{2, 1, 1, 1}
	for i, c := range hv.Counts {
		if c != want[i] {
			t.Fatalf("bucket counts = %v, want %v", hv.Counts, want)
		}
	}
	if hv.Min != 0.5 || hv.Max != 10 {
		t.Fatalf("min/max = %v/%v, want 0.5/10", hv.Min, hv.Max)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	r := New(sim.NewKernel())
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted bounds accepted")
		}
	}()
	r.Histogram("bad", "", []float64{2, 1})
}

// TestSamplerCadence verifies that samples are taken on the simulation
// clock: one at registration, one per period, one final at Stop.
func TestSamplerCadence(t *testing.T) {
	k := sim.NewKernel()
	r := New(k)
	level := 0.0
	r.Sample("soc", "node1", 2, func() float64 { return level })
	// Increment at t = 0.5, 1.5, …, 4.5, between sampler ticks.
	for i := 0; i < 5; i++ {
		k.At(sim.Time(i)+0.5, func() { level++ })
	}
	k.After(5, func() { r.StopSamplers() })
	k.RunUntil(5)

	got := r.Snapshot().Series[0].Samples
	want := []SamplePoint{{0, 0}, {2, 2}, {4, 4}, {5, 5}}
	if len(got) != len(want) {
		t.Fatalf("series = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("series[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Stopped samplers keep no events queued: the kernel drains.
	k.Run()
	if !k.Idle() {
		t.Fatal("stopped sampler left events queued")
	}
}

// TestSamplerKeepsQueueAliveUntilStopped documents the contract that a
// live sampler is a self-rescheduling event source.
func TestSamplerKeepsQueueAliveUntilStopped(t *testing.T) {
	k := sim.NewKernel()
	r := New(k)
	s := r.Sample("x", "", 1, func() float64 { return 0 })
	k.RunUntil(10)
	if k.Idle() {
		t.Fatal("live sampler should keep an event queued")
	}
	s.Stop()
	s.Stop() // idempotent
	if !k.Idle() {
		t.Fatal("Stop left events queued")
	}
	if n := len(r.Snapshot().Series[0].Samples); n != 11 {
		t.Fatalf("%d samples over 10 s at period 1, want 11", n)
	}
}

// TestDisabledRegistryIsFree asserts the zero-overhead-when-disabled
// contract: every operation on a nil registry and its nil instruments
// is a no-op and allocates nothing.
func TestDisabledRegistryIsFree(t *testing.T) {
	var r *Registry
	g := r.Gauge("a", "b")
	h := r.Histogram("a", "b", []float64{1})
	s := r.Sample("a", "b", 1, func() float64 { return 0 })
	if g != nil || h != nil || s != nil {
		t.Fatal("nil registry handed out live instruments")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		g.Set(1)
		h.Observe(3)
		s.Stop()
		r.StopSamplers()
	})
	if allocs != 0 {
		t.Fatalf("disabled instruments allocate %v per op bundle", allocs)
	}
	if !r.Snapshot().Empty() {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := New(sim.NewKernel())
	r.Gauge("b", "node2").Set(1)
	r.Gauge("a", "node1").Set(1)
	r.Gauge("a", "node0").Set(1)
	r.Histogram("z", "", nil).Observe(1)
	r.Histogram("y", "", nil).Observe(2)
	snap := r.Snapshot()
	if snap.Gauges[0].Name != "a" || snap.Gauges[0].Node != "node0" ||
		snap.Gauges[1].Node != "node1" || snap.Gauges[2].Name != "b" {
		t.Fatalf("gauges unsorted: %+v", snap.Gauges)
	}
	if snap.Histograms[0].Name != "y" {
		t.Fatalf("histograms unsorted: %+v", snap.Histograms)
	}
}

func TestGaugeUnsetExcludedFromSnapshot(t *testing.T) {
	r := New(sim.NewKernel())
	r.Gauge("never-set", "")
	if n := len(r.Snapshot().Gauges); n != 0 {
		t.Fatalf("%d gauges in snapshot, want 0 (never set)", n)
	}
}

// BenchmarkDisabledInstruments measures the disabled-path cost: it must
// stay at a nil check so tier-1 benchmarks are unaffected by
// instrumentation.
func BenchmarkDisabledInstruments(b *testing.B) {
	var r *Registry
	g := r.Gauge("x", "")
	h := r.Histogram("y", "", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(1)
		h.Observe(1)
	}
}
