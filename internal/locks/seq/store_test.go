package seq

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
)

// TestStoreWords holds StoreWords to its contract at every length up to four
// words and a byte, from every source offset (so the source is unaligned):
// exactly ⌈n/8⌉ little-endian words with a zero-padded tail, every word after
// them untouched, and a short destination refused before any store. A plain
// build runs the amd64 assembly, a -race build the atomic loop.
func TestStoreWords(t *testing.T) {
	const sentinel = 0xa5a5_a5a5_a5a5_a5a5
	buf := make([]byte, 33+8)
	for i := range buf {
		buf[i] = byte(i*29 + 1)
	}
	fill := func(dst []atomic.Uint64) {
		for i := range dst {
			dst[i].Store(sentinel)
		}
	}
	for n := 0; n <= 33; n++ {
		for off := 0; off < 8; off++ {
			src := buf[off : off+n]
			words := (n + 7) / 8
			dst := make([]atomic.Uint64, words+2)
			fill(dst)
			StoreWords(dst, src)
			for i := range dst {
				want := uint64(sentinel)
				if i < words {
					var w [8]byte
					copy(w[:], src[i*8:])
					want = binary.LittleEndian.Uint64(w[:])
				}
				if got := dst[i].Load(); got != want {
					t.Fatalf("n=%d off=%d: word %d = %#x, want %#x", n, off, i, got, want)
				}
			}
			if words == 0 {
				continue
			}
			short := dst[:words-1]
			fill(dst)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("n=%d off=%d: a %d-word destination did not panic", n, off, len(short))
					}
				}()
				StoreWords(short, src)
			}()
			for i := range dst {
				if got := dst[i].Load(); got != sentinel {
					t.Fatalf("n=%d off=%d: the refused store wrote word %d (%#x)", n, off, i, got)
				}
			}
		}
	}
}
