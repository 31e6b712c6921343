package arch

import "unsafe"

// Prefetch hints that the cache lines covering [p, p+n) will be accessed
// soon, issuing one PREFETCHT0 per line (prefetch_amd64.s). It is only a
// hint: a prefetch neither faults nor stores, so p may point anywhere —
// unmapped, protected or past an allocation — and n ≤ 0 issues nothing.
// Callers cap n: each line is one instruction and one fill.
//
//go:noescape
func Prefetch(p unsafe.Pointer, n int)
