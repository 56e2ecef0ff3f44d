package assert

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"dvsim/internal/telemetry"
)

// fields lists every numeric field an assertion may observe, mapped to
// its accessor. Names follow the JSON tags.
var fields = map[string]func(*telemetry.Record) float64{
	"t":        func(r *telemetry.Record) float64 { return r.T },
	"mhz":      func(r *telemetry.Record) float64 { return r.MHz },
	"end":      func(r *telemetry.Record) float64 { return r.End },
	"frame":    func(r *telemetry.Record) float64 { return float64(r.Frame) },
	"value":    func(r *telemetry.Record) float64 { return r.Value },
	"kb":       func(r *telemetry.Record) float64 { return r.KB },
	"dur_s":    func(r *telemetry.Record) float64 { return r.DurS },
	"attempt":  func(r *telemetry.Record) float64 { return float64(r.Attempt) },
	"from_mhz": func(r *telemetry.Record) float64 { return r.FromMHz },
	"queue":    func(r *telemetry.Record) float64 { return float64(r.Queue) },
}

// FieldNames lists the observable numeric fields, sorted, for error
// messages and docs.
func FieldNames() []string {
	return []string{"attempt", "dur_s", "end", "frame", "from_mhz", "kb", "mhz", "queue", "t", "value"}
}

// Replay streams a recorded telemetry JSONL log through the engine:
// each line is decoded and observed in file order, and the engine is
// finished at the last record's timestamp. It returns the number of
// records replayed. Decoding is strict about JSON syntax but tolerant
// of unknown fields, so logs from newer schema revisions still replay.
func Replay(r io.Reader, e *Engine) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	n := 0
	endT := 0.0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec telemetry.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return n, fmt.Errorf("assert: record %d: %w", n+1, err)
		}
		e.Observe(&rec)
		if rec.T > endT {
			endT = rec.T
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("assert: reading log: %w", err)
	}
	if n == 0 {
		return 0, fmt.Errorf("assert: empty telemetry log")
	}
	e.Finish(endT)
	return n, nil
}

// ReplayFile is Replay on a file path.
func ReplayFile(path string, e *Engine) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, err := Replay(f, e)
	if err != nil {
		return n, fmt.Errorf("%s: %w", path, err)
	}
	return n, nil
}
