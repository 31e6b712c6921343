package kvs

import (
	"encoding/binary"
	"sync/atomic"
)

// seqCell is one key's value storage in a form the optimistic (seqlock) read
// path can copy out with no lock held: the bytes are packed little-endian
// into a fixed array of atomic words, with the visible length and the TTL
// deadline alongside as atomics. Every field access is atomic, so a reader
// racing an in-place writer observes some interleaving of old and new words
// — torn data — but never a data race; the shard's write-section sequence
// counter is what detects the tear and discards the copy.
//
// The word array's size is fixed at allocation: an update that fits is
// applied in place (the engine's rocksdb-style in-place update, at word
// granularity), one that does not allocates a replacement cell which the
// writer republishes in the shard's table (seqIndex). Readers therefore
// always have len(words) as a stable bound — a torn length can misreport
// the payload, never send a copy out of bounds.
type seqCell struct {
	vlen     atomic.Int64 // visible byte length, <= 8*len(words)
	deadline atomic.Int64 // TTL deadline (clock.Nanos), 0 = no TTL
	words    []atomic.Uint64
}

// newSeqCell allocates a cell sized for value and stores it.
func newSeqCell(value []byte, deadline int64) *seqCell {
	c := &seqCell{words: make([]atomic.Uint64, (len(value)+7)/8)}
	c.set(value, deadline)
	return c
}

// fits reports whether a value of n bytes can be stored in place.
func (c *seqCell) fits(n int) bool { return n <= len(c.words)*8 }

// set stores value and deadline in place. The caller holds the shard write
// lock inside an open write section; concurrent optimistic readers may see
// the store half-applied and are invalidated by the section's seq bump.
func (c *seqCell) set(value []byte, deadline int64) {
	for i := 0; i*8 < len(value); i++ {
		var w [8]byte
		copy(w[:], value[i*8:])
		c.words[i].Store(binary.LittleEndian.Uint64(w[:]))
	}
	c.vlen.Store(int64(len(value)))
	c.deadline.Store(deadline)
}

// length returns the visible byte length, clamped to the cell's capacity so
// a torn read can never index out of bounds.
func (c *seqCell) length() int {
	n := int(c.vlen.Load())
	if max := len(c.words) * 8; n < 0 || n > max {
		return max
	}
	return n
}

// appendTo appends the cell's bytes to buf and returns the result. Safe to
// call with no lock held; the copy may be torn and the caller must validate
// the surrounding seq section before trusting it.
func (c *seqCell) appendTo(buf []byte) []byte {
	n := c.length()
	var w [8]byte
	for i := 0; i < n/8; i++ {
		binary.LittleEndian.PutUint64(w[:], c.words[i].Load())
		buf = append(buf, w[:]...)
	}
	if rem := n % 8; rem > 0 {
		binary.LittleEndian.PutUint64(w[:], c.words[n/8].Load())
		buf = append(buf, w[:rem]...)
	}
	return buf
}

// bytes returns a fresh copy of the cell's value. Non-nil even for empty
// values, so callers can use nil as an absence marker.
func (c *seqCell) bytes() []byte {
	return c.appendTo(make([]byte, 0, c.length()))
}
