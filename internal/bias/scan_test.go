package bias

import (
	"encoding/binary"
	"slices"
	"sync/atomic"
	"testing"
)

// scanRef is scanFor's oracle: the scan's compare as an atomic loop.
func scanRef(s []atomic.Uint64, key uint64) int {
	for i := range s {
		if s[i].Load()&^genMask == key {
			return i
		}
	}
	return len(s)
}

// scanKey is an identity with both 32-bit halves of its shifted form nonzero,
// so a compare of one half alone can be told from a compare of both.
const scanKey = uint64(0x7f12_3456_789a) << genBits

// scanDecoys are words scanFor must not match against scanKey: generation
// bits only, each 32-bit half of the key alone, the next identity up, and
// foreign identities.
var scanDecoys = []uint64{
	0xFFFF,
	scanKey&0xFFFF_FFFF_0000_0000 | 0x0001_0000,
	scanKey&0x0000_0000_FFFF_0000 | 0x0001_0000_0000_0000,
	scanKey + 1<<genBits,
	0x5a5a << genBits,
	0xc000_0123_4000<<genBits | 7,
}

// TestScanForEquivalence holds scanFor to the atomic loop at every length up
// to three blocks, every sub-slice start within a block, and every position
// of one matching word (generation bits set), over a background of empty
// words (the skip path) and over one with a decoy in every word (the
// in-vector compare path). Every word of the backing array outside the slice
// but the one just past its end holds the key, so a scan that reads past
// either end reports an index other than the answer. A plain
// build runs the amd64 assembly, a -race build the atomic loop.
func TestScanForEquivalence(t *testing.T) {
	const maxLen, maxOff = 47, 15
	back := make([]atomic.Uint64, maxOff+maxLen+16)
	for _, dirty := range []bool{false, true} {
		for off := 0; off <= maxOff; off++ {
			for n := 0; n <= maxLen; n++ {
				s := back[off : off+n]
				for pos := -1; pos < n; pos++ {
					for i := range back {
						w := scanKey | uint64(i)
						switch {
						case i == off+n:
							w = genMask
						case i < off || i > off+n:
						case i == off+pos:
							w = scanKey | uint64(pos+1)&genMask
						case dirty:
							w = scanDecoys[i%len(scanDecoys)]
						default:
							w = genMask - uint64(i)
						}
						back[i].Store(w)
					}
					want := pos
					if pos < 0 {
						want = n
					}
					if got, ref := scanFor(s, scanKey), scanRef(s, scanKey); got != want || ref != want {
						t.Fatalf("dirty=%v off=%d len=%d match at %d: scanFor = %d, loop = %d", dirty, off, n, pos, got, ref)
					}
				}
			}
		}
	}
}

// FuzzScanFor compares scanFor with the atomic loop, and the revocation's
// enumeration of every match with the loop's, on words built from the input:
// each 8-byte chunk's low two bits choose the raw chunk, the key with the
// chunk's generation, or the key with one 32-bit half perturbed.
func FuzzScanFor(f *testing.F) {
	f.Add(make([]byte, 8*16), uint64(0x7f12_3456_789a))
	f.Add(make([]byte, 8*40), uint64(1))
	f.Add(make([]byte, 8*17), uint64(0)) // every word matches: the filter must not skip empty blocks for key 0
	seed := make([]byte, 8*33)
	for i := range seed {
		seed[i] = byte(i*29 + 1)
	}
	f.Add(seed, uint64(0xc000_0123_4000))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3}, uint64(0xffff_ffff_ffff))
	f.Fuzz(func(t *testing.T, raw []byte, id uint64) {
		key := id << genBits
		s := make([]atomic.Uint64, len(raw)/8)
		for i := range s {
			c := binary.LittleEndian.Uint64(raw[i*8:])
			w := c
			switch c & 3 {
			case 1:
				w = key | c&genMask
			case 2:
				w = key ^ (c>>32|1)<<32
			case 3:
				w = key ^ (c|1<<genBits)&0xFFFF_FFFF
			}
			s[i].Store(w)
		}
		for off := 0; off <= len(s); off++ {
			if got, want := scanFor(s[off:], key), scanRef(s[off:], key); got != want {
				t.Fatalf("from word %d: scanFor = %d, loop = %d", off, got, want)
			}
		}
		var got, want []int
		for i := scanFor(s, key); i < len(s); i += 1 + scanFor(s[i+1:], key) {
			got = append(got, i)
		}
		for i := range s {
			if s[i].Load()&^genMask == key {
				want = append(want, i)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("matches %v, want %v", got, want)
		}
	})
}
