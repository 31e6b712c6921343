// Package hash provides the avalanching integer mix functions used to map a
// (lock address, thread identity) pair to a visible-readers-table index.
//
// The paper's hash "is based on the Mix32 operator found in [43]" — Steele,
// Lea and Flood, "Fast Splittable Pseudorandom Number Generators" (OOPSLA
// 2014). We provide both the 32-bit and 64-bit finalizers from that lineage
// (the 64-bit one is MurmurHash3's fmix64, used by SplitMix64).
package hash

// Mix64 is the 64-bit avalanching finalizer (fmix64 / SplitMix64 family).
// It is a bijection on uint64 with full avalanche: every input bit affects
// every output bit with probability ~1/2.
func Mix64(z uint64) uint64 {
	z ^= z >> 33
	z *= 0xff51afd7ed558ccd
	z ^= z >> 33
	z *= 0xc4ceb9fe1a85ec53
	z ^= z >> 33
	return z
}

// Mix32 is the 32-bit avalanching finalizer (fmix32, the Mix32 operator of
// Steele et al. [43]). It is a bijection on uint32.
func Mix32(z uint32) uint32 {
	z ^= z >> 16
	z *= 0x85ebca6b
	z ^= z >> 13
	z *= 0xc2b2ae35
	z ^= z >> 16
	return z
}

// Index hashes a lock address and a thread identity into [0, size).
// size must be a power of two.
func Index(lock uintptr, self uint64, size uint32) uint32 {
	h := Mix64(uint64(lock) ^ Mix64(self))
	return uint32(h) & (size - 1)
}
