// Package assert is the simulator's runtime-verification layer: a
// small declarative assertion language over the telemetry event stream
// (Yu et al., "Assertion-Based Design Exploration of DVS in Network
// Processor Architectures"). A Spec — JSON-parsable, mirroring the
// shape of governor.Spec and fault.Scenario — declares invariants with
// bound, rate, implication and temporal-window operators; New compiles
// it into streaming monitors that consume telemetry.Record values one
// at a time, either online during a run (core.Params.Assertions) or
// offline over a recorded JSONL log (Replay, dvsim -check). Both paths
// observe the identical deterministic stream of the one record type the
// simulator writes, so they return identical verdicts.
//
// Checking is opt-in and must cost nothing when off: a nil *Engine is
// the disabled state and every method on it is a nil-safe no-op — the
// same contract as internal/metrics.
package assert

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"dvsim/internal/telemetry"
)

// Spec is a serializable assertion catalog: a list of named invariants
// evaluated together over one telemetry stream.
type Spec struct {
	// Name labels the catalog in reports; optional.
	Name string `json:"name,omitempty"`
	// Assertions are the invariants; at least one is required.
	Assertions []Assertion `json:"assertions"`
}

// Types lists the assertion operators in display order.
var Types = []string{"bound", "monotone", "rate", "implies", "settles", "skew", "absent"}

// Assertion is one declarative invariant. Type selects the operator:
//
//   - bound: every selected record's Field lies in [Min, Max].
//   - monotone: per node (or globally with per_node false), Field
//     never moves against Direction by more than Tol.
//   - rate: no sliding window of WindowS seconds contains more than
//     Max selected records.
//   - implies: within WindowS seconds of every selected record, a
//     record matching Then (and agreeing on the Match fields) occurs.
//     Obligations still open when the log ends are undecided, not
//     violated.
//   - settles: after WindowS seconds past the first selected record,
//     Field never changes again (eventually-settles within a window).
//   - skew: at every selected record, the spread (max-min) of the
//     latest per-node Field values stays at or below Max.
//   - absent: no selected record occurs before WindowS seconds
//     (WindowS 0 forbids the selection for the whole log).
type Assertion struct {
	// Name identifies the invariant in violations; required, unique.
	Name string `json:"name"`
	// Doc says what the invariant means; optional, for humans.
	Doc string `json:"doc,omitempty"`
	// Type is the operator (see Types).
	Type string `json:"type"`
	// Select picks the records the assertion observes.
	Select Select `json:"select"`
	// Field is the numeric field observed (see FieldNames); defaults
	// to "value".
	Field string `json:"field,omitempty"`
	// Min and Max bound the observed quantity (bound, skew, rate).
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
	// Direction is "nonincreasing" or "nondecreasing" (monotone).
	Direction string `json:"direction,omitempty"`
	// Tol is the slack allowed against the direction (monotone).
	Tol float64 `json:"tol,omitempty"`
	// PerNode partitions monotone tracking by node; defaults true.
	PerNode *bool `json:"per_node,omitempty"`
	// WindowS is the temporal window in simulated seconds (rate,
	// implies, settles, absent).
	WindowS float64 `json:"window_s,omitempty"`
	// Then is the consequent selection of an implication.
	Then *Select `json:"then,omitempty"`
	// Match lists record fields ("node", "from", "to", "kind",
	// "frame") the consequent must copy from the trigger (implies).
	Match []string `json:"match,omitempty"`
}

// Select matches records by their string labels. Zero-valued fields
// match anything; Event is required.
type Select struct {
	Event  string `json:"event"`
	Node   string `json:"node,omitempty"`
	Metric string `json:"metric,omitempty"`
	Kind   string `json:"kind,omitempty"`
	Fault  string `json:"fault,omitempty"`
	From   string `json:"from,omitempty"`
	To     string `json:"to,omitempty"`
	Mode   string `json:"mode,omitempty"`
}

// Match reports whether the record satisfies every constraint.
func (s Select) Match(r *telemetry.Record) bool {
	return s.Event == r.Event &&
		(s.Node == "" || s.Node == r.Node) &&
		(s.Metric == "" || s.Metric == r.Metric) &&
		(s.Kind == "" || s.Kind == r.Kind) &&
		(s.Fault == "" || s.Fault == r.Fault) &&
		(s.From == "" || s.From == r.From) &&
		(s.To == "" || s.To == r.To) &&
		(s.Mode == "" || s.Mode == r.Mode)
}

func (s Select) String() string {
	parts := []string{s.Event}
	add := func(k, v string) {
		if v != "" {
			parts = append(parts, k+"="+v)
		}
	}
	add("node", s.Node)
	add("metric", s.Metric)
	add("kind", s.Kind)
	add("fault", s.Fault)
	add("from", s.From)
	add("to", s.To)
	add("mode", s.Mode)
	return strings.Join(parts, " ")
}

// eventKinds is the telemetry vocabulary a selection may name.
var eventKinds = map[string]bool{
	"mode": true, "result": true, "death": true, "sample": true,
	"link": true, "latency": true, "fault": true, "retry": true,
	"govern": true,
}

// matchFields are the labels an implication may carry over from
// trigger to consequent.
var matchFields = map[string]bool{
	"node": true, "from": true, "to": true, "kind": true, "frame": true,
}

// perNode reports whether monotone tracking partitions by node.
func (a Assertion) perNode() bool { return a.PerNode == nil || *a.PerNode }

// field resolves the assertion's observed field accessor.
func (a Assertion) field() func(*telemetry.Record) float64 {
	name := a.Field
	if name == "" {
		name = "value"
	}
	return fields[name]
}

// validate checks one assertion; i is its position for error messages.
func (a Assertion) validate(i int) error {
	at := func(format string, args ...any) error {
		return fmt.Errorf("assert: assertion %d (%s): %s", i+1, a.Name, fmt.Sprintf(format, args...))
	}
	if a.Name == "" {
		return fmt.Errorf("assert: assertion %d: missing name", i+1)
	}
	if err := validateSelect(a.Select); err != nil {
		return at("select: %v", err)
	}
	if a.Field != "" {
		if _, ok := fields[a.Field]; !ok {
			return at("unknown field %q (have %s)", a.Field, strings.Join(FieldNames(), ", "))
		}
	}
	if a.Tol < 0 {
		return at("negative tol %g", a.Tol)
	}
	switch a.Type {
	case "bound":
		if a.Min == nil && a.Max == nil {
			return at("bound needs min and/or max")
		}
		if a.Min != nil && a.Max != nil && *a.Min > *a.Max {
			return at("bound min %g above max %g", *a.Min, *a.Max)
		}
	case "monotone":
		switch a.Direction {
		case "nonincreasing", "nondecreasing":
		default:
			return at("monotone needs direction nonincreasing or nondecreasing, got %q", a.Direction)
		}
	case "rate":
		if a.WindowS <= 0 {
			return at("rate needs window_s > 0")
		}
		if a.Max == nil || *a.Max < 0 {
			return at("rate needs max ≥ 0")
		}
	case "implies":
		if a.Then == nil {
			return at("implies needs a then selection")
		}
		if err := validateSelect(*a.Then); err != nil {
			return at("then: %v", err)
		}
		if a.WindowS <= 0 {
			return at("implies needs window_s > 0")
		}
		for _, m := range a.Match {
			if !matchFields[m] {
				return at("unknown match field %q (have frame, from, kind, node, to)", m)
			}
		}
	case "settles":
		if a.WindowS <= 0 {
			return at("settles needs window_s > 0")
		}
	case "skew":
		if a.Max == nil || *a.Max < 0 {
			return at("skew needs max ≥ 0")
		}
	case "absent":
		if a.WindowS < 0 {
			return at("negative window_s %g", a.WindowS)
		}
	default:
		return at("unknown type %q (have %s)", a.Type, strings.Join(Types, ", "))
	}
	return nil
}

func validateSelect(s Select) error {
	if s.Event == "" {
		return fmt.Errorf("missing event kind")
	}
	if !eventKinds[s.Event] {
		kinds := make([]string, 0, len(eventKinds))
		for k := range eventKinds {
			kinds = append(kinds, k)
		}
		// The violation kind is deliberately unselectable: a checked log
		// must replay to the same verdicts as the raw stream.
		return fmt.Errorf("unknown event kind %q (have %s)", s.Event, strings.Join(sorted(kinds), ", "))
	}
	return nil
}

// Validate checks the whole catalog.
func (s Spec) Validate() error {
	if len(s.Assertions) == 0 {
		return fmt.Errorf("assert: spec %q has no assertions", s.Name)
	}
	seen := make(map[string]bool, len(s.Assertions))
	for i, a := range s.Assertions {
		if err := a.validate(i); err != nil {
			return err
		}
		if seen[a.Name] {
			return fmt.Errorf("assert: duplicate assertion name %q", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}

// Load reads and validates a JSON spec. Unknown fields are rejected —
// a typoed operator knob must not silently weaken an invariant.
func Load(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("assert: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile is Load on a file path.
func LoadFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
