//go:build !amd64 || race

package seq

import (
	"encoding/binary"
	"sync/atomic"
)

// Store stores v in *p; see StoreWords for when that is safe.
func Store(p *atomic.Uint64, v uint64) { p.Store(v) }

// storeWords is StoreWords' loop; len(dst) is exactly ⌈len(src)/8⌉.
func storeWords(dst []atomic.Uint64, src []byte) {
	for i := range dst {
		var w [8]byte
		copy(w[:], src[i*8:])
		dst[i].Store(binary.LittleEndian.Uint64(w[:]))
	}
}
