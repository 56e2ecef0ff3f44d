package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// telemetryGoldenWindowS is the simulated window the committed telemetry
// goldens cover. Keep it in sync with the generation commands in
// testdata/README.md.
const telemetryGoldenWindowS = 120

// TestTelemetryByteDeterminism runs the telemetry log twice for each
// covered experiment and requires byte-identical output — the repo's
// core invariant — and then requires the output to match the committed
// golden byte for byte, so a kernel or scheduling change that shifts
// event ordering cannot land silently.
func TestTelemetryByteDeterminism(t *testing.T) {
	for _, id := range []ID{Exp1, Exp2C, Exp2D} {
		id := id
		t.Run(string(id), func(t *testing.T) {
			t.Parallel()
			p := DefaultParams()
			var a, b bytes.Buffer
			mustSimulate(t, Spec{ID: id, Params: p, UntilS: telemetryGoldenWindowS}, Sinks{Log: &a, Telemetry: true})
			mustSimulate(t, Spec{ID: id, Params: p, UntilS: telemetryGoldenWindowS}, Sinks{Log: &b, Telemetry: true})
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatal("two runs of the same experiment produced different telemetry bytes")
			}
			golden := filepath.Join("testdata", "telemetry_"+string(id)+".jsonl")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), want) {
				t.Fatalf("telemetry diverged from %s (%d bytes vs %d); regenerate deliberately if the change is intended",
					golden, a.Len(), len(want))
			}
		})
	}
}

// TestSuiteParallelMatchesSerial turns the suite's worker-count knob
// and requires the parallel evaluation to be outcome-for-outcome
// identical to the serial one: each experiment is an independent
// deterministic simulation and sweep.Run returns results in input
// order, so worker count must be unobservable in the results.
func TestSuiteParallelMatchesSerial(t *testing.T) {
	p := DefaultParams()
	serial := mustSuite(t, Fig10Experiments, p, 1)
	parallel := mustSuite(t, Fig10Experiments, p, 4)
	if len(serial) != len(parallel) {
		t.Fatalf("lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("outcome %s differs between 1 and 4 workers:\nserial:   %+v\nparallel: %+v",
				serial[i].ID, serial[i], parallel[i])
		}
	}
}
