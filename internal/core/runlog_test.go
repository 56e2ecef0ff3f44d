package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// plainLog runs an experiment's first until seconds with the plain log
// vocabulary.
func plainLog(t *testing.T, id ID, until float64, buf *bytes.Buffer) int {
	t.Helper()
	return mustSimulate(t, Spec{ID: id, Params: DefaultParams(), UntilS: until}, Sinks{Log: buf}).Records
}

func TestRunLoggedEmitsOrderedEvents(t *testing.T) {
	p := DefaultParams()
	var buf bytes.Buffer
	n := plainLog(t, Exp2, 5*p.FrameDelayS, &buf)
	if n < 20 {
		t.Fatalf("only %d records", n)
	}
	var prev float64 = -1
	counts := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var r LogRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad record %q: %v", sc.Text(), err)
		}
		if r.T < prev {
			t.Fatalf("records out of order at t=%v", r.T)
		}
		prev = r.T
		counts[r.Event]++
		if r.Event == "mode" {
			if r.End < r.T || r.Node == "" || r.Mode == "" {
				t.Fatalf("bad mode record: %+v", r)
			}
		}
	}
	if counts["mode"] == 0 {
		t.Fatal("no mode records")
	}
	if counts["result"] < 3 {
		t.Fatalf("%d results in 5 frame periods", counts["result"])
	}
	if counts["death"] != 0 {
		t.Fatal("nobody should die in 11.5 s")
	}
}

func TestRunLoggedModesCoverBothNodes(t *testing.T) {
	p := DefaultParams()
	var buf bytes.Buffer
	plainLog(t, Exp2, 4*p.FrameDelayS, &buf)
	out := buf.String()
	for _, want := range []string{`"node":"node1"`, `"node":"node2"`, `"mode":"communication"`, `"mode":"computation"`} {
		if !strings.Contains(out, want) {
			t.Errorf("log missing %s", want)
		}
	}
}

func TestRunLoggedRejectsBadWindow(t *testing.T) {
	var buf bytes.Buffer
	spec := Spec{ID: Exp1, Params: DefaultParams(), UntilS: -1}
	if _, err := Simulate(context.Background(), spec, Sinks{Log: &buf}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("negative window: err = %v, want ErrBadSpec", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected run wrote %d bytes", buf.Len())
	}
}

func TestRunTelemetryContextCancellation(t *testing.T) {
	spec := Spec{ID: Exp1, Params: DefaultParams(), UntilS: 120}
	// An already-expired context abandons the run before it starts and
	// writes nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	out, err := Simulate(ctx, spec, Sinks{Log: &buf, Telemetry: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: records=%d err=%v, want context.Canceled", out.Records, err)
	}
	if buf.Len() != 0 {
		t.Fatalf("cancelled run wrote %d bytes, want 0", buf.Len())
	}
	// A live cancellable run polls its context every few thousand
	// events; the poll must not perturb the simulation.
	live, stop := context.WithCancel(context.Background())
	defer stop()
	var plain, polled bytes.Buffer
	if _, err := RunTelemetry(Exp1, spec.Params, spec.UntilS, &plain); err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(live, spec, Sinks{Log: &polled, Telemetry: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), polled.Bytes()) {
		t.Fatal("context-aware run diverged from RunTelemetry output")
	}
}
