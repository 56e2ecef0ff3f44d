package atr

import (
	"math"

	"dvsim/internal/splitmix"
)

// rng is the scene generator's splitmix64 stream with the draws scenes
// need on top: self-contained, so a Scene seed pins its frames forever,
// since synthesized frames feed goldens and ground-truth assertions.
// The normal variate uses the Marsaglia polar method (with a cached
// spare), which depends only on the stream and math.Sqrt/Log, both
// exactly-rounded per IEEE 754.
type rng struct {
	splitmix.Stream
	spare    float64
	hasSpare bool
}

func newRNG(seed int64) *rng { return &rng{Stream: *splitmix.New(uint64(seed))} }

// intn returns a uniform draw in [0, n). The modulo bias is below
// n/2^64 — irrelevant for scene placement, where determinism is the
// requirement, not statistical perfection.
func (r *rng) intn(n int) int {
	if n <= 0 {
		panic("atr: intn with non-positive bound")
	}
	return int(r.Next() % uint64(n))
}

// normFloat64 returns a standard normal draw (Marsaglia polar method).
func (r *rng) normFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare, r.hasSpare = v*f, true
		return u * f
	}
}
