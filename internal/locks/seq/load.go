package seq

import "sync/atomic"

// LoadWords copies into dst the first len(dst) bytes that src holds packed
// little-endian, reading the first ⌈len(dst)/8⌉ words of src and never
// writing past len(dst). It panics, before it loads anything, when len(src)
// is shorter, whatever src's capacity.
//
// LoadWords is the copy of a Count read section, StoreWords' twin. The
// payload needs no single-copy atomicity: a copy a writer tore is discarded
// when the section's Retry fails, and the one bound the copy trusts is
// len(dst), which the caller takes from an atomically loaded header clamped
// to the allocation. On amd64 (load_amd64.s) the copy is 16-byte MOVOUs, a
// MOVQ and a byte scatter for the tail, not runtime memmove, whose choice of
// instructions is not this package's to argue; x86-TSO never reorders two
// loads, so every copy load stays before the section's closing Retry load,
// and the assembly is opaque to the compiler, so no Go access moves across
// it. Every other architecture and every -race build use atomic.Uint64.Load
// (load_atomic.go), which the race detector and checkptr keep checking.
func LoadWords(dst []byte, src []atomic.Uint64) {
	loadWords(dst, src[:(len(dst)+7)/8:len(src)])
}
