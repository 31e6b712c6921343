//go:build !amd64 || race

package seq

import (
	"encoding/binary"
	"sync/atomic"
)

// loadWords is LoadWords' loop; len(src) is exactly ⌈len(dst)/8⌉.
func loadWords(dst []byte, src []atomic.Uint64) {
	for i := range src {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], src[i].Load())
		copy(dst[i*8:], w[:])
	}
}
