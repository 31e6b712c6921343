// Package xrand provides the pseudo-random number generators the paper's
// benchmarks rely on:
//
//   - XorShift64: the thread-local Marsaglia xorshift generator [34] that
//     benchmark threads use for cheap per-thread randomness.
//   - MT19937: Mersenne Twister; RWBench's critical sections execute "10
//     steps of a thread-local C++ std::mt19937" (paper §5.4), so we reproduce
//     that generator exactly.
//
// None of these are safe for concurrent use; every benchmark thread owns its
// own instance, exactly as in the paper.
package xrand

// XorShift64 is Marsaglia's 64-bit xorshift generator.
type XorShift64 struct {
	s uint64
}

// NewXorShift64 returns a generator seeded from seed; a zero seed is
// remapped (xorshift has an all-zero fixed point).
func NewXorShift64(seed uint64) *XorShift64 {
	x := &XorShift64{}
	x.Seed(seed)
	return x
}

// Seed resets the generator state.
func (x *XorShift64) Seed(seed uint64) {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	x.s = seed
}

// Next returns the next value in the sequence (triplet 13/7/17).
func (x *XorShift64) Next() uint64 {
	s := x.s
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	x.s = s
	return s
}

// Intn returns a value uniformly distributed in [0, n).
func (x *XorShift64) Intn(n uint64) uint64 {
	return x.Next() % n
}
