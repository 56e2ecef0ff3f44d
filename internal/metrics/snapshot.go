package metrics

import "sort"

// Snapshot is a deterministic, export-ready copy of a run's
// instruments: every slice is sorted by (Name, Node), so identical runs
// snapshot to identical bytes downstream (CSV, golden files). A
// registry fills Gauges, Histograms and Series; Counters are the
// engine's own event counts, which the run adds when it ends.
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
	Series     []SeriesValue
}

// CounterValue is one event count, read from the engine at the end of
// a run.
type CounterValue struct {
	Name  string
	Node  string
	Value float64
}

// GaugeValue is one gauge's exported state.
type GaugeValue struct {
	Name  string
	Node  string
	Value float64
}

// HistogramValue is one histogram's exported state.
type HistogramValue struct {
	Name   string
	Node   string
	Bounds []float64 // bucket upper bounds; Counts has one extra +Inf slot
	Counts []uint64
	Count  uint64
	Sum    float64
	Min    float64
	Max    float64
}

// SeriesValue is one sampler's exported time series.
type SeriesValue struct {
	Name    string
	Node    string
	PeriodS float64
	Samples []SamplePoint
}

// Empty reports whether the snapshot holds no instruments at all.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 &&
		len(s.Histograms) == 0 && len(s.Series) == 0
}

// Snapshot exports the registry's current state, Counters left empty.
// A nil registry snapshots to the zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for key, g := range r.gauges {
		if !g.set {
			continue
		}
		s.Gauges = append(s.Gauges, GaugeValue{Name: key.Name, Node: key.Node, Value: g.v})
	}
	for key, h := range r.hists {
		bounds := make([]float64, len(h.bounds))
		copy(bounds, h.bounds)
		counts := make([]uint64, len(h.counts))
		copy(counts, h.counts)
		s.Histograms = append(s.Histograms, HistogramValue{
			Name: key.Name, Node: key.Node,
			Bounds: bounds, Counts: counts,
			Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
		})
	}
	for _, sp := range r.samplers {
		samples := make([]SamplePoint, len(sp.series))
		copy(samples, sp.series)
		s.Series = append(s.Series, SeriesValue{
			Name: sp.key.Name, Node: sp.key.Node,
			PeriodS: float64(sp.period), Samples: samples,
		})
	}
	sort.Slice(s.Gauges, func(i, j int) bool {
		return lessNN(s.Gauges[i].Name, s.Gauges[i].Node, s.Gauges[j].Name, s.Gauges[j].Node)
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		return lessNN(s.Histograms[i].Name, s.Histograms[i].Node, s.Histograms[j].Name, s.Histograms[j].Node)
	})
	sort.Slice(s.Series, func(i, j int) bool {
		return lessNN(s.Series[i].Name, s.Series[i].Node, s.Series[j].Name, s.Series[j].Node)
	})
	return s
}

func lessNN(n1, d1, n2, d2 string) bool {
	if n1 != n2 {
		return n1 < n2
	}
	return d1 < d2
}
