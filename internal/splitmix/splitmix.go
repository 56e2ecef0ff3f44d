// Package splitmix is the repository's one pseudo-random generator,
// splitmix64: Mix, its 64-bit output function, and Stream, the seeded
// stream built on it. Both are self-contained — math/rand's algorithms
// are not guaranteed stable across Go releases — so a seed pins every
// draw forever: the fault injector's link faults, the scene
// generator's frames and a runfile's derived seeds. splitmix64 passes
// BigCrush and is the canonical seeder of the xoshiro family; a single
// 64-bit state is plenty for Bernoulli fault draws and scene noise.
package splitmix

// gamma is the golden-ratio increment that advances the state.
const gamma = 0x9e3779b97f4a7c15

// Mix returns the splitmix64 output of state x: x advanced by gamma,
// then finalized.
func Mix(x uint64) uint64 {
	x += gamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream is a seeded splitmix64 stream.
type Stream struct{ state uint64 }

// New returns the stream seeded with seed.
func New(seed uint64) *Stream { return &Stream{state: seed} }

// Next returns the next 64-bit output.
func (r *Stream) Next() uint64 {
	z := Mix(r.state)
	r.state += gamma
	return z
}

// Float64 returns a uniform draw in [0, 1) with 53 bits of precision.
func (r *Stream) Float64() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}
