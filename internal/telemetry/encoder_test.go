package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

// stringCorpus exercises every escaping branch: pass-through ASCII, the
// short control escapes, \u00XX controls, HTML escaping, multi-byte
// runes, the JS line separators and invalid UTF-8.
var stringCorpus = []string{
	"",
	"mode", "node1", "battery_soc", "communication",
	`plain ascii with spaces`,
	`quote " and backslash \`,
	"\b\f\n\r\t",
	"\x00\x01\x1f\x7f",
	"<script>&amp;</script>",
	"a<b>c&d",
	"héllo wörld",
	"日本語テキスト",
	"emoji \U0001F600 tail",
	"line sep end",
	" ", " ",
	"\xff", "a\x80b", "\xe2\x28truncated", "ok\xc3",
	"\xed\xa0\x80 surrogate half",
	strings.Repeat("x", 3000) + "\n" + strings.Repeat("<", 100),
}

func TestAppendStringMatchesStdlib(t *testing.T) {
	for _, s := range stringCorpus {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("stdlib refused %q: %v", s, err)
		}
		got := AppendString(nil, s)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, stdlib %s", s, got, want)
		}
	}
}

// TestAppendStringMatchesStdlibRandom sweeps deterministic pseudo-random
// byte strings (valid and invalid UTF-8 alike) through both encoders.
func TestAppendStringMatchesStdlibRandom(t *testing.T) {
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		// splitmix64: deterministic, seed-stable across runs.
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := 0; i < 500; i++ {
		n := int(next() % 64)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(next())
		}
		s := string(b)
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("stdlib refused %q: %v", s, err)
		}
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, stdlib %s", s, got, want)
		}
	}
}

// floatCorpus exercises both notations and their boundaries.
var floatCorpus = []float64{
	0, 1, -1, 0.5, -0.5, 2.3, 1099.5, 59.8,
	math.Copysign(0, -1),
	1.0 / 3.0, math.Pi, math.E,
	1e-6, 9.999999e-7, 1e-7, 1e-21,
	1e20, 9.99e20, 1e21, 1.5e21, 1e22,
	-1e-6, -1e-7, -1e21, -123456789.123456789,
	math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, 5e-324, 2.2250738585072014e-308,
	1.7976931348623157e+308, 4503599627370495.5, 9007199254740993,
}

func TestAppendFloatMatchesStdlib(t *testing.T) {
	for _, f := range floatCorpus {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("stdlib refused %v: %v", f, err)
		}
		got, ok := AppendFloat(nil, f)
		if !ok {
			t.Fatalf("AppendFloat(%v) refused a finite value", f)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%v) = %s, stdlib %s", f, got, want)
		}
	}
}

func TestAppendFloatMatchesStdlibRandom(t *testing.T) {
	state := uint64(42)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	tested := 0
	for tested < 500 {
		f := math.Float64frombits(next())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		tested++
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("stdlib refused %v: %v", f, err)
		}
		got, ok := AppendFloat(nil, f)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%x bits %v) = %s ok=%v, stdlib %s",
				math.Float64bits(f), f, got, ok, want)
		}
	}
}

func TestAppendFloatRefusesNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		got, ok := AppendFloat([]byte("prefix"), f)
		if ok || string(got) != "prefix" {
			t.Errorf("AppendFloat(%v) = %q ok=%v, want untouched prefix and ok=false", f, got, ok)
		}
	}
}

// encRecord mirrors a telemetry record shape for the whole-record
// differential test; field order matches the encode calls below.
type encRecord struct {
	T     float64   `json:"t"`
	Event string    `json:"event"`
	Node  string    `json:"node,omitempty"`
	Value float64   `json:"value,omitempty"`
	Frame int       `json:"frame,omitempty"`
	Ctl   []float64 `json:"ctl,omitempty"`
}

func TestEncoderMatchesStdlibEncoder(t *testing.T) {
	recs := []encRecord{
		{T: 0, Event: "mode", Node: "node1"},
		{T: 59.8, Event: "sample", Node: "node2", Value: 0.9912345678},
		{T: 2.3, Event: "result", Frame: 1},
		{T: 4.6, Event: "govern", Node: "node1", Ctl: []float64{0.5, -0.25, 1e-7}},
		{T: 1e-7, Event: `esc"<&>`, Node: "a b"},
	}
	var want bytes.Buffer
	std := json.NewEncoder(&want)
	var got bytes.Buffer
	enc := NewEncoder(&got)
	for _, r := range recs {
		if err := std.Encode(r); err != nil {
			t.Fatal(err)
		}
		enc.Begin()
		enc.Float("t", r.T)
		enc.Str("event", r.Event)
		enc.StrOmit("node", r.Node)
		enc.FloatOmit("value", r.Value)
		enc.IntOmit("frame", r.Frame)
		if len(r.Ctl) > 0 {
			enc.Floats("ctl", r.Ctl)
		}
		enc.End()
	}
	if enc.Flush(); enc.Err() != nil {
		t.Fatal(enc.Err())
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("encoder stream differs from stdlib:\ngot:  %swant: %s", got.Bytes(), want.Bytes())
	}
	if enc.Flushed() != len(recs) {
		t.Errorf("Flushed() = %d, want %d", enc.Flushed(), len(recs))
	}
}

func TestEncoderNaNSetsErr(t *testing.T) {
	enc := NewEncoder(io.Discard)
	enc.Begin()
	enc.Float("t", math.NaN())
	enc.End()
	if !errors.Is(enc.Err(), ErrUnsupportedValue) {
		t.Errorf("Err() = %v, want ErrUnsupportedValue", enc.Err())
	}
}

// failAfter accepts the first n writes, then fails.
type failAfter struct {
	n    int
	seen int
}

func (w *failAfter) Write(p []byte) (int, error) {
	w.seen++
	if w.seen > w.n {
		return 0, errors.New("wire cut")
	}
	return len(p), nil
}

// TestFlushedCountsOnlyDeliveredRecords pins the partial-write contract
// behind core.Simulate's Outcome.Records: records stuck in the buffer when
// the writer dies are not counted.
func TestFlushedCountsOnlyDeliveredRecords(t *testing.T) {
	enc := NewEncoder(&failAfter{})
	for i := 0; i < 3; i++ {
		enc.Begin()
		enc.Int("i", i+1)
		enc.End()
	}
	if err := enc.Flush(); err == nil {
		t.Fatal("flush to a dead writer succeeded")
	}
	if enc.Flushed() != 0 {
		t.Errorf("Flushed() = %d after a failed first flush, want 0", enc.Flushed())
	}

	enc = NewEncoder(&failAfter{n: 1})
	enc.Begin()
	enc.Int("i", 1)
	enc.End()
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	enc.Begin()
	enc.Int("i", 2)
	enc.End()
	enc.Flush()
	if enc.Err() == nil {
		t.Fatal("second flush to a dying writer succeeded")
	}
	if enc.Flushed() != 1 {
		t.Errorf("Flushed() = %d, want 1 (only the first record reached the wire)", enc.Flushed())
	}
}

// BenchmarkEncodeJSONL measures the per-record encode cost of a
// representative telemetry record; steady state must not allocate.
func BenchmarkEncodeJSONL(b *testing.B) {
	enc := NewEncoder(io.Discard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc.Begin()
		enc.Float("t", 59.8)
		enc.Str("event", "sample")
		enc.StrOmit("node", "node1")
		enc.StrOmit("metric", "battery_soc")
		enc.FloatOmit("value", 0.9912345678)
		enc.End()
	}
	enc.Flush()
	if enc.Err() != nil {
		b.Fatal(enc.Err())
	}
}
