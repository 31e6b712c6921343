//go:build amd64 && !race

package seq

import "sync/atomic"

// loadWords is LoadWords' loop; len(src) is exactly ⌈len(dst)/8⌉.
//
//go:noescape
func loadWords(dst []byte, src []atomic.Uint64)
