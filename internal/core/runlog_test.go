package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dvsim/internal/chunk"
	"dvsim/internal/cpu"
	"dvsim/internal/host"
	"dvsim/internal/node"
	"dvsim/internal/serial"
	"dvsim/internal/sim"
	telem "dvsim/internal/telemetry"
)

func TestRunLoggedEmitsOrderedEvents(t *testing.T) {
	p := DefaultParams()
	var buf bytes.Buffer
	n := mustSimulate(t, Spec{ID: Exp2, Params: p, UntilS: 5 * p.FrameDelayS}, Sinks{Log: &buf}).Records
	if n < 20 {
		t.Fatalf("only %d records", n)
	}
	var prev float64 = -1
	counts := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var r telem.Record
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
	mustSimulate(t, Spec{ID: Exp2, Params: p, UntilS: 4 * p.FrameDelayS}, Sinks{Log: &buf})
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
	out, err := Simulate(ctx, spec, Sinks{Log: &buf})
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
	mustSimulate(t, spec, Sinks{Log: &plain})
	if _, err := Simulate(live, spec, Sinks{Log: &polled}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), polled.Bytes()) {
		t.Fatal("context-aware run diverged from the background-context run")
	}
}

// listOf returns a chunk list holding evs.
func listOf[E any](evs ...E) *chunk.List[E] {
	var l chunk.List[E]
	for _, e := range evs {
		l.Append(e)
	}
	return &l
}

// drain copies one full pass of the merge.
func drain(m *merger) []telem.Record {
	var out []telem.Record
	m.rewind()
	for r := m.next(); r != nil; r = m.next() {
		out = append(out, *r)
	}
	return out
}

// describe renders records compactly for failure messages.
func describe(recs []telem.Record) string {
	var b strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&b, "\n  t=%v %s node=%q from=%q frame=%d", r.T, r.Event, r.Node, r.From, r.Frame)
	}
	return b.String()
}

// TestMergeOrdersSources pins the merge on the cases no golden reaches:
// hook buckets filled against lessRecord order at one instant or across
// instants, and a death at the instant a mode span starts.
func TestMergeOrdersSources(t *testing.T) {
	// Two link completions at one instant arrive with their From labels
	// reversed; the bucket's order net must restore node1 before node2.
	rc := &recorder{}
	rc.link = *listOf(
		serial.TransferEvent{T: 3, From: "node1", To: "node2", Kind: serial.KindInter, KB: 1, DurS: 0.1},
		serial.TransferEvent{T: 5, From: "node2", To: "host", Kind: serial.KindResult, KB: 1, DurS: 0.1},
		serial.TransferEvent{T: 5, From: "node1", To: "node2", Kind: serial.KindInter, KB: 1, DurS: 0.1},
	)
	rc.result = *listOf(host.Result{Frame: 1, At: 5, From: "node2"})
	got := drain(rc.merge(&rig{d: 2.3}, nil))
	want := []telem.Record{
		{T: 3, Event: "link", From: "node1", To: "node2", Kind: "inter", KB: 1, DurS: 0.1},
		{T: 5, Event: "link", From: "node1", To: "node2", Kind: "inter", KB: 1, DurS: 0.1},
		{T: 5, Event: "link", From: "node2", To: "host", Kind: "result", KB: 1, DurS: 0.1},
		{T: 5, Event: "latency", Frame: 1, From: "node2", Value: 5 - 2.3},
		{T: 5, Event: "result", Frame: 1, From: "node2"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reversed link bucket merged as%s\nwant%s", describe(got), describe(want))
	}

	// Two results at one instant arrive with their From labels reversed:
	// the one check of the result bucket puts both the latency and the
	// result stream in label order.
	rc = &recorder{}
	rc.result = *listOf(
		host.Result{Frame: 2, At: 7, From: "node2"},
		host.Result{Frame: 1, At: 7, From: "node1"},
	)
	d := 2.3
	got = drain(rc.merge(&rig{d: d}, nil))
	want = []telem.Record{
		{T: 7, Event: "latency", Frame: 1, From: "node1", Value: 7 - d},
		{T: 7, Event: "latency", Frame: 2, From: "node2", Value: 7 - 2*d},
		{T: 7, Event: "result", Frame: 1, From: "node1"},
		{T: 7, Event: "result", Frame: 2, From: "node2"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reversed result bucket merged as%s\nwant%s", describe(got), describe(want))
	}

	// A link bucket whose instants go backwards takes the stable-sort
	// fallback: time order first, arrival order kept between equal
	// records.
	rc = &recorder{}
	rc.link = *listOf(
		serial.TransferEvent{T: 4, From: "node1", To: "node2", Kind: serial.KindInter, KB: 2, DurS: 0.2},
		serial.TransferEvent{T: 2, From: "node2", To: "host", Kind: serial.KindResult, KB: 1, DurS: 0.1},
		serial.TransferEvent{T: 4, From: "node1", To: "node2", Kind: serial.KindInter, KB: 3, DurS: 0.3},
		serial.TransferEvent{T: 1, From: "node1", To: "node2", Kind: serial.KindInter, KB: 1, DurS: 0.1},
	)
	got = drain(rc.merge(&rig{d: 2.3}, nil))
	want = []telem.Record{
		{T: 1, Event: "link", From: "node1", To: "node2", Kind: "inter", KB: 1, DurS: 0.1},
		{T: 2, Event: "link", From: "node2", To: "host", Kind: "result", KB: 1, DurS: 0.1},
		{T: 4, Event: "link", From: "node1", To: "node2", Kind: "inter", KB: 2, DurS: 0.2},
		{T: 4, Event: "link", From: "node1", To: "node2", Kind: "inter", KB: 3, DurS: 0.3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("backward link bucket merged as%s\nwant%s", describe(got), describe(want))
	}

	// node1 dies at t=5, the instant one of its spans and one of node2's
	// start: both spans precede the death (mode ranks before death).
	span := func(mode cpu.Mode, start, end float64) node.ModeSpan {
		return node.ModeSpan{Mode: mode, Op: cpu.MaxPoint, Start: sim.Time(start), End: sim.Time(end)}
	}
	m := &merger{srcs: []source{
		modeSource("node1", listOf(span(cpu.Compute, 0, 5), span(cpu.Idle, 5, 5.5))),
		modeSource("node2", listOf(span(cpu.Comm, 4, 5), span(cpu.Compute, 5, 6))),
		bucket("death", listOf(&node.Node{Name: "node1", DeadAt: 5}), func(n **node.Node) float64 { return float64((*n).DeadAt) }, deathRecord),
	}}
	got = drain(m)
	var order []string
	for _, r := range got {
		order = append(order, fmt.Sprintf("%v %s %s %s", r.T, r.Event, r.Node, r.Mode))
	}
	wantOrder := []string{
		"0 mode node1 computation",
		"4 mode node2 communication",
		"5 mode node1 idle",
		"5 mode node2 computation",
		"5 death node1 ",
	}
	if !reflect.DeepEqual(order, wantOrder) {
		t.Fatalf("mode/death merge order\n got %q\nwant %q", order, wantOrder)
	}
	// A second pass over the same cursor yields the same stream.
	if again := drain(m); !reflect.DeepEqual(again, got) {
		t.Fatalf("rewound merge diverged:%s\nfirst pass%s", describe(again), describe(got))
	}
}

// TestCatalogLogInterleavesViolations runs a checked telemetry log whose
// verdicts fall between other records: the violation source merges into
// canonical order, not onto the end.
func TestCatalogLogInterleavesViolations(t *testing.T) {
	p := DefaultParams()
	p.Assertions = loadSpec(t, "broken.json")
	var buf bytes.Buffer
	out := mustSimulate(t, Spec{ID: Exp2D, Params: p, UntilS: 600}, Sinks{Log: &buf})
	records := decodeLog(t, &buf)
	if len(records) != out.Records {
		t.Fatalf("decoded %d records, Outcome.Records %d", len(records), out.Records)
	}
	violations, interleaved := 0, false
	for i := range records {
		if i > 0 && lessRecord(&records[i], &records[i-1]) {
			t.Fatalf("record %d out of canonical order:%s", i, describe(records[i-1:i+1]))
		}
		if records[i].Event == "violation" {
			violations++
			if i+1 < len(records) && records[i+1].Event != "violation" {
				interleaved = true
			}
		}
	}
	if violations != len(out.Violations) || violations == 0 {
		t.Fatalf("log carries %d violations, outcome %d", violations, len(out.Violations))
	}
	if !interleaved {
		t.Fatal("every violation sits at the end of the log; want them interleaved")
	}
}

var errCut = errors.New("wire cut")

// cutWriter accepts n bytes, then fails. The write that crosses the cut
// still delivers its leading bytes, as io.Writer allows.
type cutWriter struct {
	n   int
	got bytes.Buffer
}

func (w *cutWriter) Write(p []byte) (int, error) {
	if room := w.n - w.got.Len(); len(p) > room {
		w.got.Write(p[:room])
		return room, errCut
	}
	return w.got.Write(p)
}

// TestSimulateCountsDeliveredRecordsOnWriteError pins Simulate's
// partial-write contract: the writer's error comes back, Outcome.Records
// is the number of whole lines that reached the writer, and those lines
// are the head of the log an unbroken writer receives. The full-window
// 2D log is written in time shards (at least two processors): its cuts
// fall in the first, a middle and the last shard, and no encoding
// worker outlives the failed run.
func TestSimulateCountsDeliveredRecordsOnWriteError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	checked := DefaultParams()
	checked.Assertions = loadSpec(t, "broken.json")
	for _, c := range []struct {
		name string
		spec Spec
		sk   Sinks
	}{
		{"plain", Spec{ID: Exp2, Params: DefaultParams(), UntilS: 1800}, Sinks{}},
		{"telemetry", Spec{ID: Exp2, Params: DefaultParams(), UntilS: 1800}, Sinks{}},
		{"catalog", Spec{ID: Exp2D, Params: checked, UntilS: 1800}, Sinks{}},
		{"sharded", Spec{ID: Exp2D, Params: DefaultParams(), UntilS: fullWindowS}, Sinks{}},
	} {
		var full bytes.Buffer
		sk := c.sk
		sk.Log = &full
		mustSimulate(t, c.spec, sk)
		for _, cut := range []int{0, 1, full.Len() / 3, full.Len() - 1} {
			w := &cutWriter{n: cut}
			sk.Log = w
			before := settledGoroutines()
			out, err := Simulate(context.Background(), c.spec, sk)
			if !errors.Is(err, errCut) {
				t.Fatalf("%s cut at %d: err = %v, want the writer's error", c.name, cut, err)
			}
			if lines := bytes.Count(w.got.Bytes(), []byte{'\n'}); out.Records != lines {
				t.Errorf("%s cut at %d: Outcome.Records = %d, %d whole lines reached the writer", c.name, cut, out.Records, lines)
			}
			if !bytes.HasPrefix(full.Bytes(), w.got.Bytes()) {
				t.Errorf("%s cut at %d: delivered bytes are not the head of the full log", c.name, cut)
			}
			if after := goroutinesBackTo(before); after > before {
				t.Errorf("%s cut at %d: %d goroutines after the run, %d before", c.name, cut, after, before)
			}
		}
	}
}
