package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// decodeStrict unmarshals one telemetry line rejecting unknown fields,
// so the committed goldens and the LogRecord schema cannot drift apart
// silently.
func decodeStrict(line []byte, r *LogRecord) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	return dec.Decode(r)
}

// TestTelemetryGoldenRoundTrip parses every committed telemetry golden
// back through the LogRecord schema and checks the stream contract the
// consumers (assert.Replay, external plotting) rely on: every line
// decodes strictly, timestamps never decrease, and records sharing a
// timestamp appear in canonical lessRecord order — which subsumes the
// eventRank vocabulary ordering documented in DESIGN.md §6.
func TestTelemetryGoldenRoundTrip(t *testing.T) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "telemetry_*.jsonl"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no telemetry goldens found: %v", err)
	}
	for _, path := range goldens {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		var prev LogRecord
		n := 0
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			n++
			var r LogRecord
			if err := decodeStrict(sc.Bytes(), &r); err != nil {
				t.Fatalf("%s line %d: %v", path, n, err)
			}
			if eventRank(r.Event) >= eventRank("") {
				t.Fatalf("%s line %d: event %q outside the documented vocabulary", path, n, r.Event)
			}
			if n > 1 {
				if r.T < prev.T {
					t.Fatalf("%s line %d: time went backwards (%g after %g)", path, n, r.T, prev.T)
				}
				if r.T == prev.T && lessRecord(&r, &prev) {
					t.Fatalf("%s line %d: equal-timestamp records out of canonical order:\n%+v\nafter\n%+v",
						path, n, r, prev)
				}
			}
			prev = r
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("%s: empty golden", path)
		}
	}
}
