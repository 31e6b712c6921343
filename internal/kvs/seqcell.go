package kvs

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"unsafe"
)

// seqCell is one key's value storage in a form the optimistic (seqlock) read
// path can copy out with no lock held: one pointer-free allocation of atomic
// words. Word 0 — the word a *seqCell points at — packs the cell's payload
// capacity in words (high half, fixed at allocation) with the visible byte
// length (low half); word 1 is the TTL deadline (clock.Nanos, 0 = no TTL);
// words 2… hold the bytes, packed little-endian. Every access is atomic, so
// a reader racing an in-place writer observes some interleaving of old and
// new words — torn data — but never a data race; the shard's write-section
// sequence counter is what detects the tear and discards the copy.
//
// The capacity is fixed at allocation: an update that fits is applied in
// place (the engine's rocksdb-style in-place update, at word granularity),
// one that does not allocates a replacement cell which the writer
// republishes in the shard's table (seqIndex). Every store to word 0 writes
// the same capacity back, so readers always have a stable bound — a torn
// length can misreport the payload, never send a copy out of bounds.
type seqCell atomic.Uint64

const (
	cellHeaderWords = 2 // word 0: capacity|length, word 1: deadline
	cellLenBits     = 32
	// maxCellLen is the longest value the length field can state.
	maxCellLen = 1<<cellLenBits - 1
)

// cellHead packs word 0. A length the field cannot state is refused here,
// before anything is allocated or stored: truncating it would serve a
// shorter value than the one written.
func cellHead(capWords, n int) uint64 {
	if uint64(n) > maxCellLen {
		panic(fmt.Sprintf("kvs: value of %d bytes exceeds the %d-byte cell limit", n, uint64(maxCellLen)))
	}
	return uint64(capWords)<<cellLenBits | uint64(n)
}

// newSeqCell allocates a cell sized for value and stores it.
func newSeqCell(value []byte, deadline int64) *seqCell {
	capWords := (len(value) + 7) / 8
	head := cellHead(capWords, len(value))
	mem := make([]atomic.Uint64, cellHeaderWords+capWords)
	mem[0].Store(head)
	c := (*seqCell)(&mem[0])
	c.set(value, deadline)
	return c
}

// words returns the cell's whole allocation, header included. head is a
// load of word 0; its capacity half is what newSeqCell allocated, which is
// what makes this — the package's only use of unsafe — sound.
func (c *seqCell) words(head uint64) []atomic.Uint64 {
	return unsafe.Slice((*atomic.Uint64)(c), cellHeaderWords+int(head>>cellLenBits))
}

func (c *seqCell) head() uint64 { return (*atomic.Uint64)(c).Load() }

// fits reports whether a value of n bytes can be stored in place.
func (c *seqCell) fits(n int) bool { return n <= int(c.head()>>cellLenBits)*8 }

// deadline returns the TTL deadline, 0 for none.
func (c *seqCell) deadline() int64 { return int64(c.words(c.head())[1].Load()) }

// set stores value and deadline in place. The caller holds the shard write
// lock inside an open write section; concurrent optimistic readers may see
// the store half-applied and are invalidated by the section's seq bump.
func (c *seqCell) set(value []byte, deadline int64) {
	mem := c.words(c.head())
	payload := mem[cellHeaderWords:]
	for i := 0; i*8 < len(value); i++ {
		var w [8]byte
		copy(w[:], value[i*8:])
		payload[i].Store(binary.LittleEndian.Uint64(w[:]))
	}
	mem[0].Store(cellHead(len(payload), len(value)))
	mem[1].Store(uint64(deadline))
}

// length returns the visible byte length, clamped to the cell's capacity so
// a torn read can never index out of bounds.
func (c *seqCell) length() int { return cellLen(c.head()) }

// cellLen is the visible byte length head states, clamped to its capacity.
func cellLen(head uint64) int {
	n, max := head&maxCellLen, (head>>cellLenBits)*8
	if n > max {
		n = max
	}
	return int(n)
}

// appendTo appends the cell's bytes to buf and returns the result. Safe to
// call with no lock held; the copy may be torn and the caller must validate
// the surrounding seq section before trusting it.
func (c *seqCell) appendTo(buf []byte) []byte {
	head := c.head()
	payload := c.words(head)[cellHeaderWords:]
	n := cellLen(head)
	var w [8]byte
	for i := 0; i < n/8; i++ {
		binary.LittleEndian.PutUint64(w[:], payload[i].Load())
		buf = append(buf, w[:]...)
	}
	if rem := n % 8; rem > 0 {
		binary.LittleEndian.PutUint64(w[:], payload[n/8].Load())
		buf = append(buf, w[:rem]...)
	}
	return buf
}

// bytes returns a fresh copy of the cell's value. Non-nil even for empty
// values, so callers can use nil as an absence marker.
func (c *seqCell) bytes() []byte {
	return c.appendTo(make([]byte, 0, c.length()))
}
