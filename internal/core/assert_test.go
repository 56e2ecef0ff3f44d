package core

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dvsim/internal/assert"
	telem "dvsim/internal/telemetry"
)

func loadSpec(t *testing.T, name string) *assert.Spec {
	t.Helper()
	s, err := assert.LoadFile(filepath.Join("..", "..", "scenarios", "assertions", name))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGoldensHoldCatalog is the shipped-invariant acceptance criterion:
// every committed telemetry golden replays clean under the paper-derived
// catalog, and the experiment-1 golden also satisfies its tighter
// per-experiment spec.
func TestGoldensHoldCatalog(t *testing.T) {
	cases := []struct{ golden, spec string }{
		{"telemetry_1.jsonl", "catalog.json"},
		{"telemetry_2C.jsonl", "catalog.json"},
		{"telemetry_2D.jsonl", "catalog.json"},
		{"telemetry_1.jsonl", "exp1.json"},
	}
	for _, c := range cases {
		eng := assert.MustNew(loadSpec(t, c.spec))
		n, err := assert.ReplayFile(filepath.Join("testdata", c.golden), eng)
		if err != nil {
			t.Fatalf("%s vs %s: %v", c.golden, c.spec, err)
		}
		if n == 0 {
			t.Fatalf("%s: empty golden", c.golden)
		}
		if eng.Total() != 0 {
			t.Errorf("%s vs %s: %d violation(s), the first %+v", c.golden, c.spec, eng.Total(), eng.Violations()[0])
		}
	}
}

// TestBrokenSpecDeterministic checks the negative path: a spec bounding
// frame latency below the platform's operating point must fail on every
// golden, and two replays must produce byte-identical violation sets.
func TestBrokenSpecDeterministic(t *testing.T) {
	spec := loadSpec(t, "broken.json")
	replay := func() []assert.Violation {
		eng := assert.MustNew(spec)
		if _, err := assert.ReplayFile(filepath.Join("testdata", "telemetry_2D.jsonl"), eng); err != nil {
			t.Fatal(err)
		}
		return eng.Violations()
	}
	a, b := replay(), replay()
	if len(a) == 0 {
		t.Fatal("broken spec produced no violations on the 2D golden")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two replays of the same log disagree")
	}
	for _, v := range a {
		if v.Assertion != "impossible-deadline" || v.Type != "bound" || v.Value <= 1.0 {
			t.Fatalf("unexpected violation %+v", v)
		}
	}
}

// TestVerdictIndependentOfLog: a catalog's verdict on a run does not
// depend on whether the run writes a log, and a logged run carries each
// violation as exactly one record.
func TestVerdictIndependentOfLog(t *testing.T) {
	for _, c := range []struct {
		spec string
		id   ID
		s    float64
	}{
		{"broken.json", Exp1, 300},
		{"catalog.json", Exp2D, 600},
	} {
		p := DefaultParams()
		p.Assertions = loadSpec(t, c.spec)
		run := Spec{ID: c.id, Params: p, UntilS: c.s}
		bare := mustSimulate(t, run, Sinks{})
		var log bytes.Buffer
		logged := mustSimulate(t, run, Sinks{Log: &log})
		if bare.AssertionsRun == 0 {
			t.Fatalf("%s on %s: no assertion evaluated", c.spec, c.id)
		}
		if !reflect.DeepEqual(bare.Violations, logged.Violations) ||
			bare.AssertionsRun != logged.AssertionsRun || bare.ViolationTotal != logged.ViolationTotal {
			t.Errorf("%s on %s: unlogged run %d evaluated, %d violation(s); logged run %d, %d",
				c.spec, c.id, bare.AssertionsRun, bare.ViolationTotal, logged.AssertionsRun, logged.ViolationTotal)
		}
		records := 0
		for _, r := range decodeLog(t, &log) {
			if r.Event == "violation" {
				records++
			}
		}
		if records != len(logged.Violations) {
			t.Errorf("%s on %s: %d violation records for %d violations", c.spec, c.id, records, len(logged.Violations))
		}
	}
}

// TestOnlineOfflineParity is the tentpole's equivalence criterion: the
// verdicts a catalog reaches online during a telemetry run (embedded in
// the JSONL as violation records) are identical to replaying that same log
// offline through a fresh engine — for a failing spec (2D under the
// impossible deadline) and for a clean one (2C under the catalog).
func TestOnlineOfflineParity(t *testing.T) {
	for _, c := range []struct {
		spec string
		id   ID
		want bool // violations expected
	}{
		{"broken.json", Exp2D, true},
		{"catalog.json", Exp2C, false},
	} {
		spec := loadSpec(t, c.spec)
		p := DefaultParams()
		p.Assertions = spec
		var log bytes.Buffer
		mustSimulate(t, Spec{ID: c.id, Params: p, UntilS: 120}, Sinks{Log: &log})

		// Online verdicts ride in the log as violation records.
		var online []telem.Record
		for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
			r := decodeRecord(t, line)
			if r.Event == "violation" {
				online = append(online, r)
			}
		}
		if (len(online) > 0) != c.want {
			t.Fatalf("%s on %s: %d online violations, expected any=%v", c.spec, c.id, len(online), c.want)
		}

		// Offline: replay the very same log (violation records included —
		// they are unselectable, so they cannot feed back into verdicts).
		eng := assert.MustNew(spec)
		if _, err := assert.Replay(bytes.NewReader(log.Bytes()), eng); err != nil {
			t.Fatal(err)
		}
		vio := eng.Violations()
		offline := make([]telem.Record, len(vio))
		for i := range vio {
			violationRecord(&vio[i], &offline[i])
		}
		if len(offline) != len(online) {
			t.Fatalf("%s on %s: online %d violations, offline %d", c.spec, c.id, len(online), len(offline))
		}
		for i := range offline {
			if !reflect.DeepEqual(offline[i], online[i]) {
				t.Fatalf("verdict %d diverges:\n online %+v\noffline %+v", i, online[i], offline[i])
			}
		}
	}
}

func decodeRecord(t *testing.T, line string) telem.Record {
	t.Helper()
	var r telem.Record
	if err := decodeStrict([]byte(line), &r); err != nil {
		t.Fatalf("bad record %q: %v", line, err)
	}
	return r
}

// TestCheckedRunOutcome checks the plumbing: Params.Assertions turns a
// plain run into a checked one whose verdict lands in the Outcome.
func TestCheckedRunOutcome(t *testing.T) {
	catalog := loadSpec(t, "catalog.json")
	p := DefaultParams()
	p.Assertions = catalog
	out := mustSimulate(t, Spec{ID: Exp1, Params: p}, Sinks{})
	if out.AssertionsRun != len(catalog.Assertions) {
		t.Fatalf("checked run evaluated %d assertions, want %d", out.AssertionsRun, len(catalog.Assertions))
	}
	if out.ViolationTotal != 0 || len(out.Violations) != 0 {
		t.Fatalf("experiment 1 violated the catalog: %+v", out.Violations)
	}
	// The outcome must match the plain run exactly: checking is an
	// observer, never a perturbation.
	plain := mustSimulate(t, Spec{ID: Exp1, Params: DefaultParams()}, Sinks{})
	if out.BatteryLifeH != plain.BatteryLifeH || out.Frames != plain.Frames {
		t.Fatalf("checking perturbed the run: %v/%d vs %v/%d",
			out.BatteryLifeH, out.Frames, plain.BatteryLifeH, plain.Frames)
	}
}

// TestUncheckedRunUnchanged pins the nil contract: without a catalog
// the outcome carries no assertion state at all.
func TestUncheckedRunUnchanged(t *testing.T) {
	out := mustSimulate(t, Spec{ID: Exp1, Params: DefaultParams()}, Sinks{})
	if out.AssertionsRun != 0 || out.ViolationTotal != 0 || out.Violations != nil {
		t.Fatalf("unchecked run carries assertion state: %+v", out)
	}
}
