// Package metrics is a simulation-clock-aware instrumentation subsystem:
// gauges and fixed-bucket histograms keyed by (name, node) labels, plus
// periodic samplers driven as simulation events, so every recorded point
// carries the *simulated* time it was observed at.
//
// The registry holds only what the engine does not already count. Event
// counts (frames, transfers, switches, delivered charge) live in plain
// fields of the engine's own types, which the run reads once at its end
// into Snapshot.Counters; nothing counts them a second time here.
//
// Observability is opt-in and must cost nothing when off: a nil *Registry
// is the disabled state, and every instrument handle obtained from a nil
// registry is itself nil. All instrument methods are nil-safe no-ops, so
// instrumented code holds plain fields and calls them unconditionally —
// the disabled path is a single nil check, which keeps the hot loops of
// internal/sim and internal/node benchmark-neutral.
//
// Like the rest of the simulator, a Registry is owned by one simulation
// and is not safe for concurrent use; parallel sweeps give each run its
// own registry.
package metrics

import (
	"fmt"
	"sort"

	"dvsim/internal/sim"
)

// Key identifies one instrument: a metric name plus the node (or other
// entity) it describes. Node may be empty for system-wide metrics.
type Key struct {
	Name string
	Node string
}

func (k Key) String() string {
	if k.Node == "" {
		return k.Name
	}
	return k.Name + "{node=" + k.Node + "}"
}

// Registry owns a simulation's instruments. The zero value is not usable;
// create registries with New. A nil *Registry is the disabled state: all
// lookups return nil instruments whose methods are no-ops.
type Registry struct {
	k        *sim.Kernel
	gauges   map[Key]*Gauge
	hists    map[Key]*Histogram
	samplers []*Sampler
}

// New returns an enabled registry recording against kernel k's clock.
func New(k *sim.Kernel) *Registry {
	return &Registry{
		k:      k,
		gauges: make(map[Key]*Gauge),
		hists:  make(map[Key]*Histogram),
	}
}

// Gauge returns (creating on first use) the gauge for (name, node).
func (r *Registry) Gauge(name, node string) *Gauge {
	if r == nil {
		return nil
	}
	key := Key{name, node}
	if g, ok := r.gauges[key]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[key] = g
	return g
}

// Histogram returns (creating on first use) the histogram for
// (name, node) with the given bucket upper bounds, which must be sorted
// ascending. An implicit +Inf bucket catches everything above the last
// bound. Re-requesting an existing histogram ignores the bounds argument.
func (r *Registry) Histogram(name, node string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	key := Key{name, node}
	if h, ok := r.hists[key]; ok {
		return h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %v bounds not ascending: %v", key, bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	h := &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
	r.hists[key] = h
	return h
}

// Gauge is an instantaneous level (queue depth, state of charge).
// Methods on a nil gauge are no-ops.
type Gauge struct {
	v   float64
	set bool
}

// Set records the current level.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v, g.set = v, true
}

// Histogram accumulates observations into fixed buckets. Methods on a
// nil histogram are no-ops.
type Histogram struct {
	bounds []float64 // bucket upper bounds, ascending
	counts []uint64  // len(bounds)+1; last is the +Inf bucket
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}
