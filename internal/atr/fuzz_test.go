package atr

import "testing"

// FuzzFFTRoundTrip checks IFFT∘FFT ≈ identity on arbitrary byte-derived
// signals.
func FuzzFFTRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := NextPow2(len(data))
		if n > 1024 {
			n = 1024
		}
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := 0; i < n && i < len(data); i++ {
			x[i] = complex(float64(data[i])/255, 0)
			orig[i] = x[i]
		}
		FFT(x)
		IFFT(x)
		for i := range x {
			d := x[i] - orig[i]
			if real(d)*real(d)+imag(d)*imag(d) > 1e-12 {
				t.Fatalf("round trip error at %d", i)
			}
		}
	})
}
