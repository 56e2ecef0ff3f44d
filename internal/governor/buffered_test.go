package governor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBufferedMinSpeedUniformStream(t *testing.T) {
	// Uniform frames: buffering cannot beat the long-run rate w/D.
	works := []float64{1, 1, 1, 1, 1, 1}
	s0 := BufferedMinSpeed(works, 2, 0)
	s3 := BufferedMinSpeed(works, 2, 3)
	if !approx(s0, 0.5, 1e-12) {
		t.Errorf("unbuffered speed %v, want 0.5", s0)
	}
	if s3 >= s0 {
		t.Errorf("buffered speed %v not below unbuffered %v", s3, s0)
	}
	// But never below the sustained average of the stream interior.
	if s3 < 6.0/(5*2+4*2) {
		t.Errorf("buffered speed %v below any feasible rate", s3)
	}
}

func TestBufferedMinSpeedBurstyStream(t *testing.T) {
	// One heavy frame among light ones: buffer absorbs the burst.
	works := []float64{1, 1, 6, 1, 1, 1}
	unbuf := BufferedMinSpeed(works, 2, 0)
	buf2 := BufferedMinSpeed(works, 2, 2)
	if !approx(unbuf, 3.0, 1e-12) { // 6 work in one 2 s window
		t.Errorf("unbuffered %v, want 3.0", unbuf)
	}
	if buf2 >= unbuf*0.51 {
		t.Errorf("buffer 2 speed %v; expected less than half of %v", buf2, unbuf)
	}
	// Cubic energy at the lower speed must win even though the processor
	// may run longer.
	if buf2 <= 0 {
		t.Fatal("zero speed")
	}
}

func TestBufferedMinSpeedValidatedBySimulation(t *testing.T) {
	works := []float64{0.5, 2.5, 0.2, 3.0, 0.4, 0.1, 1.8}
	for _, buffer := range []int{0, 1, 2, 4} {
		s := BufferedMinSpeed(works, 1.5, buffer)
		ok, _ := SimulateBufferedFIFO(works, 1.5, buffer, s*(1+1e-9))
		if !ok {
			t.Errorf("buffer %d: speed %v misses deadlines in simulation", buffer, s)
		}
		// Slightly below the minimum must fail.
		ok, _ = SimulateBufferedFIFO(works, 1.5, buffer, s*0.98)
		if ok {
			t.Errorf("buffer %d: speed %v not minimal", buffer, s)
		}
	}
}

func TestBufferedMinSpeedBadArgsPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { BufferedMinSpeed([]float64{1}, 0, 1) },
		func() { BufferedMinSpeed([]float64{1}, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad args accepted")
				}
			}()
			fn()
		}()
	}
}

// Property: buffered minimal speed is nonincreasing in buffer size and
// the simulation confirms feasibility.
func TestPropertyBufferedSpeedMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 2
		works := make([]float64, n)
		for i := range works {
			works[i] = 0.1 + rng.Float64()*3
		}
		prev := math.Inf(1)
		for buffer := 0; buffer <= 4; buffer++ {
			s := BufferedMinSpeed(works, 1.7, buffer)
			if s > prev+1e-12 {
				return false
			}
			prev = s
			if ok, _ := SimulateBufferedFIFO(works, 1.7, buffer, s*(1+1e-9)); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
