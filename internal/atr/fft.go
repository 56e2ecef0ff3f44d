package atr

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// This file implements the FFT/IFFT blocks of the ATR algorithm: an
// iterative radix-2 decimation-in-time complex FFT, with 2-D transforms
// built from row/column passes. The matched filter (filter.go) runs the
// template correlation in the frequency domain, exactly the FFT → filter
// → IFFT structure of the paper's Fig 1.

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPow2 returns the smallest power of two ≥ n (n ≥ 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// FFT computes the in-place forward discrete Fourier transform of x.
// len(x) must be a power of two.
func FFT(x []complex128) { fft(x, false) }

// IFFT computes the in-place inverse DFT of x, including the 1/N scale.
// len(x) must be a power of two.
func IFFT(x []complex128) {
	fft(x, true)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
}

func fft(x []complex128, inverse bool) {
	n := len(x)
	if !IsPow2(n) {
		panic(fmt.Sprintf("atr: FFT length %d is not a power of two", n))
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Butterflies.
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := sign * 2 * math.Pi / float64(size)
		wBase := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wBase
			}
		}
	}
}

// FFT2D computes the forward 2-D DFT of a w×h row-major grid in place.
// Both w and h must be powers of two.
func FFT2D(data []complex128, w, h int) { fft2d(data, w, h, false) }

// IFFT2D computes the inverse 2-D DFT (scaled) in place.
func IFFT2D(data []complex128, w, h int) { fft2d(data, w, h, true) }

func fft2d(data []complex128, w, h int, inverse bool) {
	if len(data) != w*h {
		panic(fmt.Sprintf("atr: FFT2D grid %dx%d but %d samples", w, h, len(data)))
	}
	dir := FFT
	if inverse {
		dir = IFFT
	}
	// Rows.
	for y := 0; y < h; y++ {
		dir(data[y*w : (y+1)*w])
	}
	// Columns.
	col := make([]complex128, h)
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			col[y] = data[y*w+x]
		}
		dir(col)
		for y := 0; y < h; y++ {
			data[y*w+x] = col[y]
		}
	}
}

// Spectrum is the frequency-domain representation of an ROI: the payload
// the FFT block hands to the filter/IFFT stage when the pipeline is
// distributed.
type Spectrum struct {
	W, H int
	Data []complex128
}

// NewSpectrum transforms a real-valued w×h patch (row-major) into its 2-D
// spectrum, zero-padding each dimension to a power of two.
func NewSpectrum(patch []float64, w, h int) Spectrum {
	pw, ph := NextPow2(w), NextPow2(h)
	data := make([]complex128, pw*ph)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			data[y*pw+x] = complex(patch[y*w+x], 0)
		}
	}
	FFT2D(data, pw, ph)
	return Spectrum{W: pw, H: ph, Data: data}
}
