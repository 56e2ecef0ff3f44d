package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	"dvsim/internal/sweep"
	telem "dvsim/internal/telemetry"
)

// fullWindowS is dvsim's default telemetry window: 30 h, past every
// battery death.
const fullWindowS = 30 * 3600

// TestShardedLogMatchesOneShard: the time-sharded writer emits exactly
// the one-shard log, at any worker count, for the full-window logs of
// experiments 1, 2C and 2D and for a checked log carrying violations;
// and no shard boundary splits the records of one instant.
func TestShardedLogMatchesOneShard(t *testing.T) {
	checked := DefaultParams()
	checked.Assertions = loadSpec(t, "broken.json")
	for _, c := range []struct {
		name string
		spec Spec
	}{
		{"1", Spec{ID: Exp1, Params: DefaultParams(), UntilS: fullWindowS}},
		{"2C", Spec{ID: Exp2C, Params: DefaultParams(), UntilS: fullWindowS}},
		{"2D", Spec{ID: Exp2D, Params: DefaultParams(), UntilS: fullWindowS}},
		{"2D catalog", Spec{ID: Exp2D, Params: checked, UntilS: fullWindowS}},
	} {
		out, m, err := simulate(context.Background(), c.spec, Sinks{Log: io.Discard, Telemetry: true})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.spec.Params.Assertions != nil && len(out.Violations) == 0 {
			t.Fatalf("%s: no violations to interleave", c.name)
		}
		bounds := m.shards()
		if len(bounds)-1 < minShards {
			t.Fatalf("%s: %d shard(s), want at least %d", c.name, len(bounds)-1, minShards)
		}
		checkBoundaries(t, c.name, m, bounds)
		var one bytes.Buffer
		n, err := writeOne(&one, m)
		if err != nil {
			t.Fatalf("%s: one shard: %v", c.name, err)
		}
		for _, workers := range []int{2, 4} {
			var sharded bytes.Buffer
			got, err := writeShards(&sharded, m, bounds, workers)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", c.name, workers, err)
			}
			if got != n || !bytes.Equal(sharded.Bytes(), one.Bytes()) {
				t.Fatalf("%s, %d workers: %d records, %d bytes; one shard wrote %d, %d (first difference at byte %d)",
					c.name, workers, got, sharded.Len(), n, one.Len(), firstDiff(sharded.Bytes(), one.Bytes()))
			}
		}
	}
}

// checkBoundaries fails unless every record before each interior
// boundary is earlier than every record after it.
func checkBoundaries(t *testing.T, name string, m *merger, bounds [][]int) {
	t.Helper()
	var rec LogRecord
	for k := 1; k < len(bounds)-1; k++ {
		last, first := -1.0, -1.0
		for i, s := range m.srcs {
			if b := bounds[k][i]; b > 0 {
				s.load(b-1, &rec)
				last = max(last, rec.T)
			}
			if b := bounds[k][i]; b < s.n {
				if s.load(b, &rec); first < 0 || rec.T < first {
					first = rec.T
				}
			}
		}
		if first >= 0 && last >= first {
			t.Fatalf("%s: boundary %d splits instant %v (last record before it at %v)", name, k, first, last)
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestLogShardsOnlyWhenAlone: a full-window log is encoded on worker
// goroutines while its run is the only one in flight, and on the
// caller's goroutine while another run is, as in a Monte Carlo sweep
// or the service's worker pool.
func TestLogShardsOnlyWhenAlone(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	spec := Spec{ID: Exp2D, Params: DefaultParams(), UntilS: fullWindowS}
	for _, others := range []int32{0, 1} {
		before := settledGoroutines()
		w := &peakWriter{}
		running.Add(others)
		mustSimulate(t, spec, Sinks{Log: w, Telemetry: true})
		running.Add(-others)
		if sharded := w.peak > before; sharded != (others == 0) {
			t.Errorf("%d other run(s) in flight: sharded = %v (%d goroutines during the writes, %d before)",
				others, sharded, w.peak, before)
		}
	}
}

// peakWriter discards the log, noting the most goroutines seen at a
// write.
type peakWriter struct{ peak int }

func (w *peakWriter) Write(p []byte) (int, error) {
	w.peak = max(w.peak, runtime.NumGoroutine())
	return len(p), nil
}

// TestShardedLogStopsAtRefusedValue: a record with an unsupported value
// in a middle shard ends the sharded log exactly where it ends the
// one-shard log, after every record before it, with the same count and
// error at any worker count.
func TestShardedLogStopsAtRefusedValue(t *testing.T) {
	n := 3 * minShards * shardRecords
	bad := n / 2
	sample := func(i int, rec *LogRecord) {
		*rec = LogRecord{T: float64(i / 3), Event: "sample", Metric: "x", Value: float64(i + 1)}
	}
	m := &merger{srcs: []source{
		{rank: eventRank("mode"), n: n / 3, load: func(i int, rec *LogRecord) {
			*rec = LogRecord{T: float64(i), Event: "mode", Node: "n1", Mode: "idle"}
		}},
		{rank: eventRank("sample"), n: n, load: func(i int, rec *LogRecord) {
			if sample(i, rec); i == bad {
				rec.Value = math.NaN()
			}
		}},
	}}
	bounds := m.shards()
	if k := shardOf(bounds, 1, bad); k == 0 || k == len(bounds)-2 {
		t.Fatalf("the refused record is in shard %d of %d, want a middle one", k, len(bounds)-1)
	}
	var one bytes.Buffer
	want, err := writeOne(&one, m)
	if !errors.Is(err, telem.ErrUnsupportedValue) {
		t.Fatalf("one shard: err = %v, want ErrUnsupportedValue", err)
	}
	if lines := bytes.Count(one.Bytes(), []byte{'\n'}); want != lines || want != bad+bad/3+1 {
		t.Fatalf("one shard: %d records counted, %d lines written, want %d (every record before the refused one)", want, lines, bad+bad/3+1)
	}
	for _, workers := range []int{2, 4} {
		var sharded bytes.Buffer
		got, err := writeShards(&sharded, m, bounds, workers)
		if !errors.Is(err, telem.ErrUnsupportedValue) {
			t.Fatalf("%d workers: err = %v, want ErrUnsupportedValue", workers, err)
		}
		if got != want || !bytes.Equal(sharded.Bytes(), one.Bytes()) {
			t.Fatalf("%d workers: %d records, %d bytes; one shard wrote %d, %d (first difference at byte %d)",
				workers, got, sharded.Len(), want, one.Len(), firstDiff(sharded.Bytes(), one.Bytes()))
		}
	}
}

// shardOf returns the shard holding record j of source i.
func shardOf(bounds [][]int, i, j int) int {
	for k := 1; k < len(bounds); k++ {
		if j < bounds[k][i] {
			return k - 1
		}
	}
	return len(bounds) - 1
}

// TestWriteShardsPanicStopsWorkers: a shard that panics while encoding
// comes back to the caller as a *sweep.Panic after every worker has
// stopped, leaving no goroutine behind.
func TestWriteShardsPanicStopsWorkers(t *testing.T) {
	armed := false
	n := 2 * minShards * shardRecords
	m := &merger{srcs: []source{{rank: eventRank("sample"), n: n, load: func(i int, rec *LogRecord) {
		if armed && i == n/2 {
			panic("load failed")
		}
		*rec = LogRecord{T: float64(i / 3), Event: "sample", Metric: "x", Value: float64(i)}
	}}}}
	bounds := m.shards()
	armed = true
	before := settledGoroutines()
	var p any
	func() {
		defer func() { p = recover() }()
		writeShards(io.Discard, m, bounds, 4)
	}()
	sp, ok := p.(*sweep.Panic)
	if !ok || sp.Value != "load failed" {
		t.Fatalf("recovered %v, want the shard's panic as a *sweep.Panic", p)
	}
	if after := goroutinesBackTo(before); after > before {
		t.Fatalf("%d goroutines after the panic, %d before", after, before)
	}
}

// goroutinesBackTo waits up to a second for the goroutine count to fall
// to want and returns the last count. A worker left running keeps it
// above want; a goroutine the runtime starts for a moment (the finalizer
// runner, say) does not.
func goroutinesBackTo(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
