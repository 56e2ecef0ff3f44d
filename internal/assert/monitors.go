package assert

import (
	"fmt"
	"sort"

	"dvsim/internal/telemetry"
)

// A monitor is one compiled assertion: a deterministic state machine
// consuming the record stream. observe sees every record in stream
// order; finish flushes temporal obligations at the end of the log.
type monitor interface {
	observe(r *telemetry.Record, out *collector)
	finish(endT float64, out *collector)
}

// MaxViolationsPerAssertion caps how many violations one assertion
// records in full; beyond the cap only the count advances, keeping a
// badly broken invariant from ballooning memory and reports.
const MaxViolationsPerAssertion = 100

// collector accumulates violations with the per-assertion cap.
type collector struct {
	violations []Violation
	counts     map[string]int
	total      int
}

func (c *collector) add(v Violation) {
	if c.counts == nil {
		c.counts = make(map[string]int)
	}
	c.counts[v.Assertion]++
	c.total++
	if c.counts[v.Assertion] <= MaxViolationsPerAssertion {
		c.violations = append(c.violations, v)
	}
}

// compile builds the monitor for one validated assertion.
func compile(a Assertion) monitor {
	switch a.Type {
	case "bound":
		return &boundMon{a: a, field: a.field()}
	case "monotone":
		return &monotoneMon{a: a, field: a.field(), last: map[string]float64{}}
	case "rate":
		return &rateMon{a: a}
	case "implies":
		return &impliesMon{a: a}
	case "settles":
		return &settlesMon{a: a, field: a.field()}
	case "skew":
		return &skewMon{a: a, field: a.field(), latest: map[string]float64{}}
	case "absent":
		return &absentMon{a: a}
	default:
		// Validate covered this; kept for defense.
		panic(fmt.Sprintf("assert: unknown assertion type %q", a.Type))
	}
}

// boundMon: every selected record's field lies in [Min, Max] (Tol
// widens the interval on both sides).
type boundMon struct {
	a     Assertion
	field func(*telemetry.Record) float64
}

func (m *boundMon) observe(r *telemetry.Record, out *collector) {
	if !m.a.Select.Match(r) {
		return
	}
	v := m.field(r)
	if m.a.Min != nil && v < *m.a.Min-m.a.Tol {
		out.add(violation(m.a, r, v, *m.a.Min,
			fmt.Sprintf("%s = %g below min %g", m.a.fieldName(), v, *m.a.Min)))
	}
	if m.a.Max != nil && v > *m.a.Max+m.a.Tol {
		out.add(violation(m.a, r, v, *m.a.Max,
			fmt.Sprintf("%s = %g above max %g", m.a.fieldName(), v, *m.a.Max)))
	}
}

func (m *boundMon) finish(float64, *collector) {}

// monotoneMon: the field never moves against Direction by more than
// Tol, tracked per node (or globally).
type monotoneMon struct {
	a     Assertion
	field func(*telemetry.Record) float64
	last  map[string]float64
	seen  map[string]bool
}

func (m *monotoneMon) observe(r *telemetry.Record, out *collector) {
	if !m.a.Select.Match(r) {
		return
	}
	key := ""
	if m.a.perNode() {
		key = r.Node
	}
	v := m.field(r)
	if m.seen == nil {
		m.seen = map[string]bool{}
	}
	if m.seen[key] {
		prev := m.last[key]
		switch m.a.Direction {
		case "nonincreasing":
			if v > prev+m.a.Tol {
				out.add(violation(m.a, r, v, prev,
					fmt.Sprintf("%s rose %g -> %g (nonincreasing)", m.a.fieldName(), prev, v)))
			}
		case "nondecreasing":
			if v < prev-m.a.Tol {
				out.add(violation(m.a, r, v, prev,
					fmt.Sprintf("%s fell %g -> %g (nondecreasing)", m.a.fieldName(), prev, v)))
			}
		}
	}
	m.seen[key] = true
	m.last[key] = v
}

func (m *monotoneMon) finish(float64, *collector) {}

// rateMon: no sliding WindowS-second window holds more than Max
// selected records.
type rateMon struct {
	a     Assertion
	times []float64
}

func (m *rateMon) observe(r *telemetry.Record, out *collector) {
	if !m.a.Select.Match(r) {
		return
	}
	m.times = append(m.times, r.T)
	lo := 0
	for lo < len(m.times) && r.T-m.times[lo] > m.a.WindowS {
		lo++
	}
	m.times = m.times[lo:]
	if n := float64(len(m.times)); n > *m.a.Max {
		out.add(violation(m.a, r, n, *m.a.Max,
			fmt.Sprintf("%g events in %gs window, max %g", n, m.a.WindowS, *m.a.Max)))
	}
}

func (m *rateMon) finish(float64, *collector) {}

// impliesMon: within WindowS of each trigger, a consequent matching
// Then (agreeing on the Match fields) occurs. Obligations the log ends
// on — deadline beyond the last record — are undecided and dropped.
type impliesMon struct {
	a    Assertion
	open []telemetry.Record // copies of the triggers: see Engine.Observe
}

func (m *impliesMon) observe(r *telemetry.Record, out *collector) {
	m.expire(r.T, out)
	if m.a.Then.Match(r) {
		kept := m.open[:0]
		for _, trig := range m.open {
			if m.agrees(&trig, r) {
				continue // obligation discharged
			}
			kept = append(kept, trig)
		}
		m.open = kept
	}
	if m.a.Select.Match(r) {
		m.open = append(m.open, *r)
	}
}

func (m *impliesMon) finish(endT float64, out *collector) {
	m.expire(endT, out)
	m.open = nil
}

// expire reports every open obligation whose deadline has passed.
func (m *impliesMon) expire(now float64, out *collector) {
	kept := m.open[:0]
	for _, trig := range m.open {
		if now > trig.T+m.a.WindowS {
			out.add(violation(m.a, &trig, trig.T, m.a.WindowS,
				fmt.Sprintf("no %s within %gs of %s at t=%g", m.a.Then, m.a.WindowS, m.a.Select, trig.T)))
			continue
		}
		kept = append(kept, trig)
	}
	m.open = kept
}

// agrees checks the Match fields between trigger and consequent.
func (m *impliesMon) agrees(trig, cons *telemetry.Record) bool {
	for _, f := range m.a.Match {
		switch f {
		case "node":
			if trig.Node != cons.Node {
				return false
			}
		case "from":
			if trig.From != cons.From {
				return false
			}
		case "to":
			if trig.To != cons.To {
				return false
			}
		case "kind":
			if trig.Kind != cons.Kind {
				return false
			}
		case "frame":
			if trig.Frame != cons.Frame {
				return false
			}
		}
	}
	return true
}

// settlesMon: the first selected record starts the settle clock; once
// WindowS has passed, the field must never change again.
type settlesMon struct {
	a       Assertion
	field   func(*telemetry.Record) float64
	started bool
	startT  float64
	last    float64
}

func (m *settlesMon) observe(r *telemetry.Record, out *collector) {
	if !m.a.Select.Match(r) {
		return
	}
	v := m.field(r)
	if !m.started {
		m.started = true
		m.startT = r.T
		m.last = v
		return
	}
	changed := v != m.last // exact: a re-decided identical point is no change
	if changed && r.T > m.startT+m.a.WindowS {
		out.add(violation(m.a, r, v, m.last,
			fmt.Sprintf("%s changed %g -> %g at t=%g, %gs after the settle window closed at t=%g",
				m.a.fieldName(), m.last, v, r.T, r.T-(m.startT+m.a.WindowS), m.startT+m.a.WindowS)))
	}
	m.last = v
}

func (m *settlesMon) finish(float64, *collector) {}

// skewMon: the spread of the latest per-node field values stays at or
// below Max.
type skewMon struct {
	a      Assertion
	field  func(*telemetry.Record) float64
	latest map[string]float64
}

func (m *skewMon) observe(r *telemetry.Record, out *collector) {
	if !m.a.Select.Match(r) {
		return
	}
	m.latest[r.Node] = m.field(r)
	if len(m.latest) < 2 {
		return
	}
	first := true
	var lo, hi float64
	for _, v := range m.latest { // pure min/max: iteration order is immaterial
		if first {
			lo, hi = v, v
			first = false
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if spread := hi - lo; spread > *m.a.Max+m.a.Tol {
		out.add(violation(m.a, r, spread, *m.a.Max,
			fmt.Sprintf("%s skew %g across nodes above max %g", m.a.fieldName(), spread, *m.a.Max)))
	}
}

func (m *skewMon) finish(float64, *collector) {}

// absentMon: the selection must not occur before WindowS (or at all,
// with WindowS 0).
type absentMon struct {
	a Assertion
}

func (m *absentMon) observe(r *telemetry.Record, out *collector) {
	if !m.a.Select.Match(r) {
		return
	}
	if m.a.WindowS == 0 || r.T < m.a.WindowS {
		out.add(violation(m.a, r, r.T, m.a.WindowS,
			fmt.Sprintf("forbidden %s at t=%g (window %gs)", m.a.Select, r.T, m.a.WindowS)))
	}
}

func (m *absentMon) finish(float64, *collector) {}

// fieldName is the observed field for messages.
func (a Assertion) fieldName() string {
	if a.Field == "" {
		return "value"
	}
	return a.Field
}

// violation fills the common fields from the offending record.
func violation(a Assertion, r *telemetry.Record, value, bound float64, detail string) Violation {
	return Violation{
		T:         r.T,
		Assertion: a.Name,
		Type:      a.Type,
		Node:      r.Node,
		Frame:     r.Frame,
		Value:     value,
		Bound:     bound,
		Detail:    detail,
	}
}

func sorted(s []string) []string {
	sort.Strings(s)
	return s
}
