package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestMonteCarloMatchesGolden rebuilds the committed digest table —
// dvsim -exp 2D -mc 8 -mc-warm 60 -until 600 — byte for byte. Each row
// digests a cold telemetry run whose fault stream is reseeded at the
// warm point, so the table pins the reseed semantics end to end.
func TestMonteCarloMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "montecarlo_2D.csv"))
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	warm, res, err := MonteCarlo(Spec{ID: Exp2D, Params: DefaultParams(), UntilS: 600}, 60, seeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if warm != 26*DefaultParams().FrameDelayS {
		t.Errorf("warm point %v, want 26 frames", warm)
	}
	var got bytes.Buffer
	got.WriteString("seed,records,digest\n")
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("seed %d: %v", r.Seed, r.Err)
		}
		fmt.Fprintf(&got, "%d,%d,%016x\n", r.Seed, r.Records, r.Sum64)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("digest table differs from the golden:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// TestMonteCarloQuantizesWarmPoint pins the frame-boundary contract: the
// reseed instant lands on a multiple of D, never between frames.
func TestMonteCarloQuantizesWarmPoint(t *testing.T) {
	p := DefaultParams()
	for _, warmS := range []float64{1, 45, 46.7, 100.1} {
		warm, _, err := MonteCarlo(Spec{ID: Exp2, Params: p, UntilS: 600}, warmS, nil, 1)
		if err != nil {
			t.Fatalf("warm %v: %v", warmS, err)
		}
		frames := warm / p.FrameDelayS
		if math.Abs(frames-math.Round(frames)) > 1e-9 || warm <= 0 {
			t.Errorf("warm %v: %v is not a positive frame boundary (D=%v)", warmS, warm, p.FrameDelayS)
		}
		if math.Abs(warm-warmS) > p.FrameDelayS {
			t.Errorf("warm %v quantized to %v, more than one frame away", warmS, warm)
		}
	}
}

func TestMonteCarloRejectsBadInput(t *testing.T) {
	p := DefaultParams()
	for _, c := range []struct {
		name  string
		spec  Spec
		warmS float64
	}{
		{"zero warm point", Spec{ID: Exp2D, Params: p, UntilS: 600}, 0},
		{"horizon at the warm point", Spec{ID: Exp2D, Params: p, UntilS: 59.8}, 60},
		{"unknown experiment", Spec{ID: "9Z", Params: p, UntilS: 600}, 60},
	} {
		if _, _, err := MonteCarlo(c.spec, c.warmS, []uint64{1}, 1); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: err = %v, want ErrBadSpec", c.name, err)
		}
	}
}

// TestMonteCarloForks runs a small seed sweep: results come back in
// seed order, every run succeeds, repeated seeds digest identically
// (determinism), and distinct seeds actually diverge under 2D's fault
// load.
func TestMonteCarloForks(t *testing.T) {
	seeds := []uint64{3, 7, 11, 3}
	_, res, err := MonteCarlo(Spec{ID: Exp2D, Params: DefaultParams(), UntilS: 200}, 46, seeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(seeds) {
		t.Fatalf("%d results for %d seeds", len(res), len(seeds))
	}
	digests := make(map[uint64]bool)
	for i, r := range res {
		if r.Seed != seeds[i] {
			t.Errorf("result %d: seed %d, want %d", i, r.Seed, seeds[i])
		}
		if r.Err != nil {
			t.Errorf("seed %d: %v", r.Seed, r.Err)
		}
		if r.Records == 0 {
			t.Errorf("seed %d: no records", r.Seed)
		}
		digests[r.Sum64] = true
	}
	if res[0].Sum64 != res[3].Sum64 || res[0].Records != res[3].Records {
		t.Errorf("seed 3 run twice gave different digests: %x vs %x", res[0].Sum64, res[3].Sum64)
	}
	if len(digests) < 2 {
		t.Errorf("all %d seeds produced one digest %x; fault futures did not diverge", len(seeds), res[0].Sum64)
	}
}
