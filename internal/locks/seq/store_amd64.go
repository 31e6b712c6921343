//go:build amd64 && !race

package seq

import "sync/atomic"

// Store stores v in *p; see StoreWords for when that is safe.
//
//go:noescape
func Store(p *atomic.Uint64, v uint64)

// storeWords is StoreWords' loop; len(dst) is exactly ⌈len(src)/8⌉.
//
//go:noescape
func storeWords(dst []atomic.Uint64, src []byte)
