package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	telem "dvsim/internal/telemetry"
)

// TestEncodeRecordMatchesGoldensAndStdlib is the encoder's contract
// test against real telemetry: every committed golden line, decoded
// into a telemetry.Record, must re-encode to the exact original bytes through
// BOTH encoding/json and the hand-rolled encoder. The stdlib leg proves
// the goldens are a faithful oracle; the telemetry leg proves the fast
// path cannot drift from them.
func TestEncodeRecordMatchesGoldensAndStdlib(t *testing.T) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "telemetry_*.jsonl"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no telemetry goldens found: %v", err)
	}
	for _, path := range goldens {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		var std bytes.Buffer
		stdEnc := json.NewEncoder(&std)
		var fast bytes.Buffer
		fastEnc := telem.NewEncoder(&fast)
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		line := 0
		for sc.Scan() {
			line++
			raw := sc.Bytes()
			var r telem.Record
			if err := json.Unmarshal(raw, &r); err != nil {
				t.Fatalf("%s:%d: %v", path, line, err)
			}
			std.Reset()
			if err := stdEnc.Encode(r); err != nil {
				t.Fatalf("%s:%d: stdlib encode: %v", path, line, err)
			}
			if got := bytes.TrimSuffix(std.Bytes(), []byte("\n")); !bytes.Equal(got, raw) {
				t.Fatalf("%s:%d: stdlib re-encode drifted from golden:\ngolden: %s\ngot:    %s", path, line, raw, got)
			}
			fast.Reset()
			fastEnc.Reset(&fast)
			encodeRecord(fastEnc, &r)
			if fastEnc.Flush(); fastEnc.Err() != nil {
				t.Fatalf("%s:%d: telemetry encode: %v", path, line, fastEnc.Err())
			}
			if got := bytes.TrimSuffix(fast.Bytes(), []byte("\n")); !bytes.Equal(got, raw) {
				t.Fatalf("%s:%d: telemetry re-encode drifted from golden:\ngolden: %s\ngot:    %s", path, line, raw, got)
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if line == 0 {
			t.Errorf("%s: empty golden", path)
		}
	}
}

// TestEncodeRecordAllocatesNothing pins the package promise that a
// steady-state record costs no allocation: once an encoder has taken
// every committed golden line, encoding them all again allocates
// nothing.
func TestEncodeRecordAllocatesNothing(t *testing.T) {
	recs := goldenRecords(t)
	enc := telem.NewEncoder(io.Discard)
	encodeAll := func() {
		for i := range recs {
			encodeRecord(enc, &recs[i])
		}
		enc.Flush()
	}
	encodeAll()
	if allocs := testing.AllocsPerRun(10, encodeAll); allocs != 0 {
		t.Errorf("encoding %d warm records allocated %v times per pass, want 0", len(recs), allocs)
	}
	if enc.Err() != nil {
		t.Fatal(enc.Err())
	}
}

// TestEncodeRecordCtlMatchesStdlib covers the govern-event shape the
// goldens lack: controller terms as a fixed-size array under omitzero
// must serialize exactly as encoding/json does.
func TestEncodeRecordCtlMatchesStdlib(t *testing.T) {
	recs := []telem.Record{
		{T: 4.6, Event: "govern", Node: "node1", Frame: 2, FromMHz: 73.7, MHz: 103.2,
			Value: 0.41, Queue: 3, Ctl: [3]float64{0.5, -0.25, 1e-7}},
		{T: 9.2, Event: "govern", Node: "node2", Ctl: [3]float64{0, 0, 0}}, // omitted
		{T: 11.5, Event: "govern", Node: "node2", Ctl: [3]float64{0, 0, 1}},
	}
	for _, r := range recs {
		var std bytes.Buffer
		if err := json.NewEncoder(&std).Encode(r); err != nil {
			t.Fatal(err)
		}
		var fast bytes.Buffer
		enc := telem.NewEncoder(&fast)
		encodeRecord(enc, &r)
		if enc.Flush(); enc.Err() != nil {
			t.Fatal(enc.Err())
		}
		if !bytes.Equal(fast.Bytes(), std.Bytes()) {
			t.Errorf("ctl record drifted from stdlib:\nstdlib: %stelemetry: %s", std.Bytes(), fast.Bytes())
		}
	}
}

// FuzzEncodeRecord checks encodeRecord differentially against
// encoding/json for arbitrary field values, seeded from every committed
// telemetry golden line: the bytes agree, or both encoders reject the
// record (a NaN or infinite float); neither panics. One encoder takes
// the record twice, a differently-valued record, then the record again,
// so every line after the first goes through a warm number memo.
func FuzzEncodeRecord(f *testing.F) {
	for _, r := range goldenRecords(f) {
		f.Add(r.T, r.Event, r.Node, r.Mode, r.MHz, r.End, r.Frame, r.From, r.To,
			r.Metric, r.Value, r.Kind, r.KB, r.DurS, r.Fault, r.Attempt,
			r.FromMHz, r.Queue, r.Ctl[0], r.Ctl[1], r.Ctl[2], r.Assert, r.Detail, r.Bound)
	}
	f.Fuzz(func(t *testing.T, tt float64, event, nodeName, mode string, mhz, end float64, frame int,
		from, to, metric string, value float64, kind string, kb, durS float64, fault string,
		attempt int, fromMHz float64, queue int, c0, c1, c2 float64, assertion, detail string, bound float64) {
		r := telem.Record{
			T: tt, Event: event, Node: nodeName, Mode: mode, MHz: mhz, End: end, Frame: frame,
			From: from, To: to, Metric: metric, Value: value, Kind: kind, KB: kb, DurS: durS,
			Fault: fault, Attempt: attempt, FromMHz: fromMHz, Queue: queue,
			Ctl: [3]float64{c0, c1, c2}, Assert: assertion, Detail: detail, Bound: bound,
		}
		std, stdErr := json.Marshal(r)
		var fast bytes.Buffer
		enc := telem.NewEncoder(&fast)
		encodeRecord(enc, &r)
		enc.Flush()
		if stdErr != nil || enc.Err() != nil {
			if stdErr == nil || enc.Err() == nil {
				t.Fatalf("encoders disagree on rejecting %+v: encoding/json %v, telemetry %v", r, stdErr, enc.Err())
			}
			return
		}
		// alt moves every float one step toward zero and flips its sign:
		// finite stays finite, 0 becomes -0, and each value's neighbour
		// bit pattern goes through the memo beside the original.
		shift := func(v float64) float64 { return -math.Nextafter(v, 0) }
		alt := r
		alt.T, alt.MHz, alt.End, alt.Value = shift(r.T), shift(r.MHz), shift(r.End), shift(r.Value)
		alt.KB, alt.DurS, alt.FromMHz, alt.Bound = shift(r.KB), shift(r.DurS), shift(r.FromMHz), shift(r.Bound)
		alt.Ctl = [3]float64{shift(c0), shift(c1), shift(c2)}
		stdAlt, err := json.Marshal(alt)
		if err != nil {
			t.Fatalf("encoding/json rejected the shifted record %+v: %v", alt, err)
		}
		for _, rec := range []*telem.Record{&r, &alt, &r} {
			encodeRecord(enc, rec)
		}
		if enc.Flush(); enc.Err() != nil {
			t.Fatalf("telemetry rejected a record encoding/json accepts: %v", enc.Err())
		}
		lines := bytes.Split(bytes.TrimSuffix(fast.Bytes(), []byte("\n")), []byte("\n"))
		wants := [][]byte{std, std, stdAlt, std}
		if len(lines) != len(wants) {
			t.Fatalf("telemetry wrote %d lines for %d records:\n%s", len(lines), len(wants), fast.Bytes())
		}
		for i, want := range wants {
			if !bytes.Equal(lines[i], want) {
				t.Fatalf("line %d drifted from encoding/json:\nstdlib:    %s\ntelemetry: %s", i+1, want, lines[i])
			}
		}
	})
}

// goldenRecords decodes every line of the committed telemetry goldens.
func goldenRecords(tb testing.TB) []telem.Record {
	tb.Helper()
	goldens, err := filepath.Glob(filepath.Join("testdata", "telemetry_*.jsonl"))
	if err != nil || len(goldens) == 0 {
		tb.Fatalf("no telemetry goldens found: %v", err)
	}
	var recs []telem.Record
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
			var r telem.Record
			if err := json.Unmarshal(line, &r); err != nil {
				tb.Fatalf("%s: %v", path, err)
			}
			recs = append(recs, r)
		}
	}
	return recs
}
