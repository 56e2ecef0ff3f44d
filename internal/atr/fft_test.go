package atr

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 24: 32, 25: 32, 32: 32, 33: 64}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestFFTKnownValues(t *testing.T) {
	// Impulse transforms to a flat spectrum.
	x := make([]complex128, 8)
	x[0] = 1
	FFT(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT bin %d = %v, want 1", i, v)
		}
	}
	// Constant transforms to a single DC bin.
	for i := range x {
		x[i] = 1
	}
	FFT(x)
	if cmplx.Abs(x[0]-8) > 1e-12 {
		t.Fatalf("DC bin = %v, want 8", x[0])
	}
	for i := 1; i < 8; i++ {
		if cmplx.Abs(x[i]) > 1e-12 {
			t.Fatalf("bin %d = %v, want 0", i, x[i])
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	const n = 64
	const k = 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*k*float64(i)/n))
	}
	FFT(x)
	for i, v := range x {
		want := 0.0
		if i == k {
			want = n
		}
		if cmplx.Abs(v-complex(want, 0)) > 1e-9 {
			t.Fatalf("tone bin %d = %v, want %v", i, v, want)
		}
	}
}

func TestFFTNonPow2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FFT of length 6 did not panic")
		}
	}()
	FFT(make([]complex128, 6))
}

func TestFFT2DBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FFT2D with wrong sample count did not panic")
		}
	}()
	FFT2D(make([]complex128, 7), 4, 2)
}

// Property: IFFT(FFT(x)) = x.
func TestPropertyFFTRoundTrip(t *testing.T) {
	f := func(seed int64, logN uint8) bool {
		n := 1 << (logN%7 + 1) // 2..128
		rng := rand.New(rand.NewSource(seed))
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		FFT(x)
		IFFT(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Parseval — energy is preserved (up to the 1/N convention).
func TestPropertyParseval(t *testing.T) {
	f := func(seed int64) bool {
		const n = 32
		rng := rand.New(rand.NewSource(seed))
		x := make([]complex128, n)
		var timeE float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			timeE += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		FFT(x)
		var freqE float64
		for _, v := range x {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(freqE/float64(n)-timeE) < 1e-9*(1+timeE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: linearity — FFT(a·x + y) = a·FFT(x) + FFT(y).
func TestPropertyFFTLinearity(t *testing.T) {
	f := func(seed int64) bool {
		const n = 16
		rng := rand.New(rand.NewSource(seed))
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		x := make([]complex128, n)
		y := make([]complex128, n)
		combo := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			y[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			combo[i] = a*x[i] + y[i]
		}
		FFT(x)
		FFT(y)
		FFT(combo)
		for i := range combo {
			if cmplx.Abs(combo[i]-(a*x[i]+y[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFFT2DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const w, h = 16, 8
	data := make([]complex128, w*h)
	orig := make([]complex128, w*h)
	for i := range data {
		data[i] = complex(rng.NormFloat64(), 0)
		orig[i] = data[i]
	}
	FFT2D(data, w, h)
	IFFT2D(data, w, h)
	for i := range data {
		if cmplx.Abs(data[i]-orig[i]) > 1e-9 {
			t.Fatalf("2D round trip bin %d: %v != %v", i, data[i], orig[i])
		}
	}
}

func TestFFT2DSeparability(t *testing.T) {
	// A rank-1 image f(x,y) = g(x)·h(y) transforms to G(u)·H(v).
	const n = 8
	g := []float64{1, 2, 0, -1, 3, 0.5, -2, 1}
	hv := []float64{2, -1, 0.5, 1, -0.5, 0, 1, 2}
	data := make([]complex128, n*n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			data[y*n+x] = complex(g[x]*hv[y], 0)
		}
	}
	FFT2D(data, n, n)
	gc := make([]complex128, n)
	hc := make([]complex128, n)
	for i := 0; i < n; i++ {
		gc[i] = complex(g[i], 0)
		hc[i] = complex(hv[i], 0)
	}
	FFT(gc)
	FFT(hc)
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			want := gc[u] * hc[v]
			if cmplx.Abs(data[v*n+u]-want) > 1e-9 {
				t.Fatalf("separability at (%d,%d): %v != %v", u, v, data[v*n+u], want)
			}
		}
	}
}

func TestNewSpectrumPadsToPow2(t *testing.T) {
	patch := make([]float64, ROIW*ROIH)
	s := NewSpectrum(patch, ROIW, ROIH)
	if s.W != 32 || s.H != 32 {
		t.Fatalf("spectrum %dx%d, want 32x32", s.W, s.H)
	}
	if len(s.Data) != 32*32 {
		t.Fatalf("%d bins, want 32x32", len(s.Data))
	}
}
