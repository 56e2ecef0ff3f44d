package assert

import (
	"reflect"
	"strings"
	"testing"

	"dvsim/internal/telemetry"
)

func f(v float64) *float64 { return &v }

// runSpec evaluates one catalog over a record stream and returns the
// violations.
func runSpec(t *testing.T, spec Spec, records []telemetry.Record) []Violation {
	t.Helper()
	e, err := New(&spec)
	if err != nil {
		t.Fatal(err)
	}
	// Every record passes through one variable, as the run's merge
	// reuses its heads: a monitor that keeps the pointer, not a copy,
	// sees the later records in place of the one it kept.
	endT := 0.0
	var head telemetry.Record
	for _, r := range records {
		head = r
		e.Observe(&head)
		if r.T > endT {
			endT = r.T
		}
	}
	e.Finish(endT)
	return e.Violations()
}

func one(t *testing.T, a Assertion, records []telemetry.Record) []Violation {
	t.Helper()
	return runSpec(t, Spec{Assertions: []Assertion{a}}, records)
}

func TestBound(t *testing.T) {
	a := Assertion{Name: "lat", Type: "bound", Select: Select{Event: "latency"}, Max: f(2.3)}
	vs := one(t, a, []telemetry.Record{
		{T: 1, Event: "latency", Value: 2.3},
		{T: 2, Event: "sample", Value: 99}, // unselected
		{T: 3, Event: "latency", Value: 2.4, Frame: 7, From: "node1"},
	})
	if len(vs) != 1 {
		t.Fatalf("want 1 violation, got %v", vs)
	}
	v := vs[0]
	if v.T != 3 || v.Assertion != "lat" || v.Value != 2.4 || v.Bound != 2.3 || v.Frame != 7 {
		t.Fatalf("bad violation %+v", v)
	}
	if !strings.Contains(v.Detail, "2.4 above max 2.3") {
		t.Fatalf("bad detail %q", v.Detail)
	}
}

func TestBoundMinAndTol(t *testing.T) {
	a := Assertion{Name: "soc", Type: "bound", Select: Select{Event: "sample", Metric: "battery_soc"},
		Min: f(0), Max: f(1), Tol: 1e-9}
	vs := one(t, a, []telemetry.Record{
		{T: 1, Event: "sample", Metric: "battery_soc", Value: 1 + 1e-12}, // inside tol
		{T: 2, Event: "sample", Metric: "battery_soc", Value: -0.5},
		{T: 3, Event: "sample", Metric: "port_pending", Value: -3}, // other metric
	})
	if len(vs) != 1 || vs[0].T != 2 {
		t.Fatalf("want the t=2 undershoot only, got %v", vs)
	}
}

func TestMonotonePerNode(t *testing.T) {
	a := Assertion{Name: "soc-mono", Type: "monotone", Direction: "nonincreasing",
		Select: Select{Event: "sample", Metric: "battery_soc"}, Tol: 1e-9}
	vs := one(t, a, []telemetry.Record{
		{T: 1, Event: "sample", Node: "n1", Metric: "battery_soc", Value: 0.9},
		{T: 1, Event: "sample", Node: "n2", Metric: "battery_soc", Value: 0.5},
		{T: 2, Event: "sample", Node: "n1", Metric: "battery_soc", Value: 0.8},
		{T: 2, Event: "sample", Node: "n2", Metric: "battery_soc", Value: 0.6}, // rises
		{T: 3, Event: "sample", Node: "n2", Metric: "battery_soc", Value: 0.6}, // flat after: no repeat
	})
	if len(vs) != 1 || vs[0].Node != "n2" || vs[0].T != 2 {
		t.Fatalf("want one n2 rise at t=2, got %v", vs)
	}
}

func TestMonotoneGlobal(t *testing.T) {
	pernode := false
	a := Assertion{Name: "frames", Type: "monotone", Direction: "nondecreasing",
		Select: Select{Event: "result"}, Field: "frame", PerNode: &pernode}
	vs := one(t, a, []telemetry.Record{
		{T: 1, Event: "result", Frame: 1, From: "a"},
		{T: 2, Event: "result", Frame: 2, From: "b"},
		{T: 3, Event: "result", Frame: 1, From: "a"},
	})
	if len(vs) != 1 || vs[0].T != 3 {
		t.Fatalf("want the t=3 regression, got %v", vs)
	}
}

func TestRate(t *testing.T) {
	a := Assertion{Name: "retries", Type: "rate", Select: Select{Event: "retry"},
		WindowS: 10, Max: f(2)}
	vs := one(t, a, []telemetry.Record{
		{T: 0, Event: "retry"},
		{T: 4, Event: "retry"},
		{T: 8, Event: "retry"}, // 3 in [0,8]: violation
		{T: 20, Event: "retry"},
		{T: 29, Event: "retry"}, // 2 in [20,29]: fine
	})
	if len(vs) != 1 || vs[0].T != 8 || vs[0].Value != 3 {
		t.Fatalf("want one 3-in-window violation at t=8, got %v", vs)
	}
}

func TestImplies(t *testing.T) {
	a := Assertion{Name: "drop-recovered", Type: "implies",
		Select:  Select{Event: "fault", Fault: "drop"},
		Then:    &Select{Event: "retry"},
		Match:   []string{"from", "to", "kind"},
		WindowS: 5}
	vs := one(t, a, []telemetry.Record{
		{T: 1, Event: "fault", Fault: "drop", From: "a", To: "b", Kind: "frame"},
		{T: 2, Event: "retry", From: "a", To: "b", Kind: "frame"}, // discharges t=1
		{T: 10, Event: "fault", Fault: "drop", From: "a", To: "b", Kind: "frame"},
		{T: 12, Event: "retry", From: "x", To: "b", Kind: "frame"}, // wrong sender
		{T: 30, Event: "sample"}, // expires t=10
	})
	if len(vs) != 1 || vs[0].T != 10 {
		t.Fatalf("want the unrecovered t=10 drop, got %v", vs)
	}
	if !strings.Contains(vs[0].Detail, "no retry within 5s of fault fault=drop at t=10") {
		t.Fatalf("bad detail %q", vs[0].Detail)
	}
}

func TestImpliesUndecidedAtEnd(t *testing.T) {
	a := Assertion{Name: "recovered", Type: "implies",
		Select: Select{Event: "fault"}, Then: &Select{Event: "retry"}, WindowS: 100}
	vs := one(t, a, []telemetry.Record{
		{T: 1, Event: "fault"},
		{T: 2, Event: "retry"}, // discharged
		{T: 50, Event: "fault"},
		// Log ends at t=50: the t=50 obligation's window is open.
	})
	if len(vs) != 0 {
		t.Fatalf("open obligation at end of log must be undecided, got %v", vs)
	}
}

func TestSettles(t *testing.T) {
	a := Assertion{Name: "gov-settles", Type: "settles",
		Select: Select{Event: "govern"}, Field: "mhz", WindowS: 10}
	vs := one(t, a, []telemetry.Record{
		{T: 0, Event: "govern", MHz: 206.4},
		{T: 2, Event: "govern", MHz: 118},  // change inside window: fine
		{T: 5, Event: "govern", MHz: 59},   // still fine
		{T: 20, Event: "govern", MHz: 59},  // no change: fine
		{T: 30, Event: "govern", MHz: 118}, // change after window: violation
	})
	if len(vs) != 1 || vs[0].T != 30 {
		t.Fatalf("want the late t=30 switch, got %v", vs)
	}
}

func TestSkew(t *testing.T) {
	a := Assertion{Name: "skew", Type: "skew",
		Select: Select{Event: "sample", Metric: "battery_soc"}, Max: f(0.2)}
	vs := one(t, a, []telemetry.Record{
		{T: 1, Event: "sample", Node: "n1", Metric: "battery_soc", Value: 1.0},
		{T: 1, Event: "sample", Node: "n2", Metric: "battery_soc", Value: 0.9},
		{T: 2, Event: "sample", Node: "n1", Metric: "battery_soc", Value: 0.9},
		{T: 2, Event: "sample", Node: "n2", Metric: "battery_soc", Value: 0.6},
	})
	if len(vs) != 1 || vs[0].T != 2 {
		t.Fatalf("want the t=2 spread, got %v", vs)
	}
	if vs[0].Value < 0.29 || vs[0].Value > 0.31 {
		t.Fatalf("want spread ~0.3, got %+v", vs[0])
	}
}

func TestAbsent(t *testing.T) {
	a := Assertion{Name: "no-early-death", Type: "absent",
		Select: Select{Event: "death"}, WindowS: 100}
	vs := one(t, a, []telemetry.Record{
		{T: 50, Event: "death", Node: "n1"},
		{T: 150, Event: "death", Node: "n2"},
	})
	if len(vs) != 1 || vs[0].Node != "n1" {
		t.Fatalf("want only the early death, got %v", vs)
	}
	// window 0 forbids the event outright.
	a.WindowS = 0
	vs = one(t, a, []telemetry.Record{{T: 1e6, Event: "death"}})
	if len(vs) != 1 {
		t.Fatalf("window 0 must forbid any occurrence, got %v", vs)
	}
}

func TestNilEngineIsNoOp(t *testing.T) {
	e, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	if e != nil {
		t.Fatal("nil spec must compile to a nil engine")
	}
	e.Observe(&telemetry.Record{T: 1, Event: "death"})
	e.Finish(10)
	if e.Violations() != nil || e.Total() != 0 || e.Evaluated() != 0 {
		t.Fatal("nil engine must be a no-op")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	spec := Spec{Name: "det", Assertions: []Assertion{
		{Name: "b", Type: "bound", Select: Select{Event: "latency"}, Max: f(1)},
		{Name: "m", Type: "monotone", Direction: "nonincreasing",
			Select: Select{Event: "sample", Metric: "soc"}},
	}}
	records := []telemetry.Record{
		{T: 1, Event: "latency", Value: 2},
		{T: 2, Event: "sample", Node: "n1", Metric: "soc", Value: 0.5},
		{T: 3, Event: "sample", Node: "n1", Metric: "soc", Value: 0.6},
		{T: 3, Event: "latency", Value: 5},
	}
	a := runSpec(t, spec, records)
	b := runSpec(t, spec, records)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("verdicts differ between identical evaluations:\n%v\n%v", a, b)
	}
	if len(a) != 3 {
		t.Fatalf("want 3 violations, got %v", a)
	}
}

func TestViolationCap(t *testing.T) {
	a := Assertion{Name: "cap", Type: "bound", Select: Select{Event: "sample"}, Max: f(0)}
	records := make([]telemetry.Record, 0, 2*MaxViolationsPerAssertion)
	for i := 0; i < 2*MaxViolationsPerAssertion; i++ {
		records = append(records, telemetry.Record{T: float64(i), Event: "sample", Value: 1})
	}
	e, err := New(&Spec{Assertions: []Assertion{a}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range records {
		e.Observe(&records[i])
	}
	e.Finish(records[len(records)-1].T)
	if got := len(e.Violations()); got != MaxViolationsPerAssertion {
		t.Fatalf("kept %d violations, want the %d cap", got, MaxViolationsPerAssertion)
	}
	if e.Total() != 2*MaxViolationsPerAssertion {
		t.Fatalf("total %d, want %d", e.Total(), 2*MaxViolationsPerAssertion)
	}
}

func TestReplay(t *testing.T) {
	log := `{"t":0,"event":"mode","node":"node1","mode":"communication","mhz":59,"end":1.1}
{"t":2.3,"event":"latency","frame":1,"from":"node1","value":2.4}
{"t":60,"event":"sample","node":"node1","metric":"battery_soc","value":0.99}
`
	spec := Spec{Assertions: []Assertion{
		{Name: "lat", Type: "bound", Select: Select{Event: "latency"}, Max: f(2.3)},
	}}
	e, err := New(&spec)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Replay(strings.NewReader(log), e)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("replayed %d records, want 3", n)
	}
	if vs := e.Violations(); len(vs) != 1 || vs[0].T != 2.3 {
		t.Fatalf("want one latency violation, got %v", vs)
	}
	// Bad JSON reports the line number; an empty log is an error.
	if _, err := Replay(strings.NewReader("{oops\n"), mustEngine(t, spec)); err == nil || !strings.Contains(err.Error(), "record 1") {
		t.Fatalf("want a record-1 parse error, got %v", err)
	}
	if _, err := Replay(strings.NewReader(""), mustEngine(t, spec)); err == nil {
		t.Fatal("want an empty-log error")
	}
}

func mustEngine(t *testing.T, spec Spec) *Engine {
	t.Helper()
	e, err := New(&spec)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
