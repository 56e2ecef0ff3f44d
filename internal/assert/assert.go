package assert

import (
	"sort"

	"dvsim/internal/telemetry"
)

// Violation is one assertion failure, anchored at the offending
// record's simulated time. Violations are pure functions of (spec,
// record stream), so identical runs produce byte-identical violation
// sets — they are golden-file material, same as the telemetry itself.
type Violation struct {
	// T is the simulated time the violation was detected at (for
	// expired implications, the trigger's time).
	T float64 `json:"t"`
	// Assertion names the violated invariant; Type its operator.
	Assertion string `json:"assert"`
	Type      string `json:"type"`
	// Node and Frame locate the offending record where it carries them.
	Node  string `json:"node,omitempty"`
	Frame int    `json:"frame,omitempty"`
	// Value is the observed quantity, Bound the limit it broke.
	Value float64 `json:"value"`
	Bound float64 `json:"bound"`
	// Detail is a deterministic human-readable account.
	Detail string `json:"detail"`
}

// Engine evaluates a compiled spec over a telemetry record stream. A
// nil *Engine is the disabled state: Observe, Finish and the accessors
// are nil-safe no-ops, so callers hold one field and call it
// unconditionally — the same zero-cost-when-off contract as
// internal/metrics.
type Engine struct {
	spec Spec
	mons []monitor
	col  collector
}

// New compiles a validated spec into an engine. A nil spec yields a
// nil engine and no error — the disabled state.
func New(spec *Spec) (*Engine, error) {
	if spec == nil {
		return nil, nil
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{spec: *spec, mons: make([]monitor, len(spec.Assertions))}
	for i, a := range spec.Assertions {
		e.mons[i] = compile(a)
	}
	return e, nil
}

// MustNew is New for specs already validated (loaded via Load); it
// panics on error. A nil spec yields a nil engine.
func MustNew(spec *Spec) *Engine {
	e, err := New(spec)
	if err != nil {
		panic(err)
	}
	return e
}

// Observe feeds one record, in stream order, to every monitor. The
// record is read during the call only: the run's merge reuses it for
// the next record, so a monitor that keeps a record stores a copy.
func (e *Engine) Observe(r *telemetry.Record) {
	if e == nil {
		return
	}
	for _, m := range e.mons {
		m.observe(r, &e.col)
	}
}

// Finish closes the stream at simulated time endT, deciding every
// temporal obligation whose window has elapsed. Obligations whose
// window extends past endT are undecided, not violations.
func (e *Engine) Finish(endT float64) {
	if e == nil {
		return
	}
	for _, m := range e.mons {
		m.finish(endT, &e.col)
	}
}

// Violations returns the recorded violations in canonical order:
// (time, assertion, node, frame, detail). Per assertion, at most
// MaxViolationsPerAssertion are kept in full; Total counts them all.
func (e *Engine) Violations() []Violation {
	if e == nil {
		return nil
	}
	out := append([]Violation(nil), e.col.violations...)
	sort.SliceStable(out, func(i, j int) bool { return lessViolation(out[i], out[j]) })
	return out
}

// lessViolation is the canonical violation order.
func lessViolation(a, b Violation) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	if a.Assertion != b.Assertion {
		return a.Assertion < b.Assertion
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Frame != b.Frame {
		return a.Frame < b.Frame
	}
	return a.Detail < b.Detail
}

// Total is the number of violations detected, truncated ones included.
func (e *Engine) Total() int {
	if e == nil {
		return 0
	}
	return e.col.total
}

// Evaluated is the number of assertions the engine checks.
func (e *Engine) Evaluated() int {
	if e == nil {
		return 0
	}
	return len(e.mons)
}

// Name is the spec's catalog name.
func (e *Engine) Name() string {
	if e == nil {
		return ""
	}
	return e.spec.Name
}
