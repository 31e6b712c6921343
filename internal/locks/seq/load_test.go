package seq

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"
	"testing"
)

// loadOracle is LoadWords' contract written as the plain atomic loop: the
// first n bytes of src's words, little-endian.
func loadOracle(src []atomic.Uint64, n int) []byte {
	out := make([]byte, 0, n+8)
	for i := 0; i < (n+7)/8; i++ {
		out = binary.LittleEndian.AppendUint64(out, src[i].Load())
	}
	return out[:n]
}

// checkLoadWords loads n bytes of src into a destination at offset off of a
// sentinel-filled buffer, and wants the oracle's bytes there and every
// sentinel byte on either side untouched. When src holds at least one word
// it also hands LoadWords one word too few and wants a panic before any
// byte of the buffer changed.
func checkLoadWords(t *testing.T, src []atomic.Uint64, n, off int) {
	t.Helper()
	const sentinel = 0x5a
	buf := bytes.Repeat([]byte{sentinel}, off+n+16)
	dst := buf[off : off+n : off+n]
	LoadWords(dst, src)
	if want := loadOracle(src, n); !bytes.Equal(dst, want) {
		t.Fatalf("n=%d off=%d: loaded %x, want %x", n, off, dst, want)
	}
	for i, b := range buf {
		if (i < off || i >= off+n) && b != sentinel {
			t.Fatalf("n=%d off=%d: byte %d outside dst = %#x", n, off, i, b)
		}
	}
	words := (n + 7) / 8
	if words == 0 {
		return
	}
	for i := range buf {
		buf[i] = sentinel
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("n=%d off=%d: a %d-word source did not panic", n, off, words-1)
			}
		}()
		LoadWords(dst, src[:words-1])
	}()
	for i, b := range buf {
		if b != sentinel {
			t.Fatalf("n=%d off=%d: the refused load wrote byte %d (%#x)", n, off, i, b)
		}
	}
}

// TestLoadWords holds LoadWords to the atomic loop at every length up to 17
// words (a 128-byte value's cell and a word past it) and every destination
// offset within a word, so the destination is unaligned. A plain build runs
// the amd64 assembly, a -race build the atomic loop.
func TestLoadWords(t *testing.T) {
	src := make([]atomic.Uint64, 17+1)
	for i := range src {
		src[i].Store(0x0102_0304_0506_0708*uint64(i+1) ^ 0xf0e1_d2c3_b4a5_9687)
	}
	for n := 0; n <= 136; n++ {
		for off := 0; off < 8; off++ {
			checkLoadWords(t, src[:(n+7)/8], n, off)
		}
	}
}

// FuzzLoadWords runs the same oracle over arbitrary words, lengths and
// offsets.
func FuzzLoadWords(f *testing.F) {
	f.Add([]byte("a value longer than two words"), uint16(29), uint8(3))
	f.Add([]byte{}, uint16(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0xff}, 136), uint16(136), uint8(7))
	f.Fuzz(func(t *testing.T, raw []byte, n uint16, off uint8) {
		src := make([]atomic.Uint64, (len(raw)+7)/8)
		for i := range src {
			var w [8]byte
			copy(w[:], raw[i*8:])
			src[i].Store(binary.LittleEndian.Uint64(w[:]))
		}
		checkLoadWords(t, src, min(int(n), len(src)*8), int(off%8))
	})
}
