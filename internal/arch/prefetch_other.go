//go:build !amd64

package arch

import "unsafe"

// Prefetch hints that the cache lines covering [p, p+n) will be accessed
// soon. Only amd64 issues the hint (prefetch_amd64.s); here it does nothing.
func Prefetch(p unsafe.Pointer, n int) {}
