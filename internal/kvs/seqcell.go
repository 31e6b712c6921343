package kvs

import (
	"fmt"
	"slices"
	"sync/atomic"
	"unsafe"

	"github.com/bravolock/bravo/internal/clock"
	"github.com/bravolock/bravo/internal/locks/seq"
)

// seqCell is one key's value storage in a form the optimistic (seqlock) read
// path can copy out with no lock held: one pointer-free allocation of atomic
// words. Word 0 — the word a *seqCell points at — packs the cell's payload
// capacity in words (high half, fixed at allocation) with the visible byte
// length (low half); word 1 is the key's TTL deadline — the only place the
// engine stores one (clock.Nanos, 0 = no TTL);
// words 2… hold the bytes, packed little-endian. Every load is atomic and
// every store single-copy atomic (set), so a reader racing an in-place
// writer observes some interleaving of old and new words — torn data — but
// never a torn word; the shard's write-section sequence counter is what
// detects the tear and discards the copy.
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
	seq.Store(&mem[0], head)
	c := (*seqCell)(&mem[0])
	c.set(value, deadline)
	return c
}

// words returns the cell's whole allocation, header included. head is a
// load of word 0; its capacity half is what newSeqCell allocated, which is
// what makes this — the package's only unsafe access — sound.
func (c *seqCell) words(head uint64) []atomic.Uint64 {
	return unsafe.Slice((*atomic.Uint64)(c), cellHeaderWords+int(head>>cellLenBits))
}

func (c *seqCell) head() uint64 { return (*atomic.Uint64)(c).Load() }

// fits reports whether a value of n bytes can be stored in place.
func (c *seqCell) fits(n int) bool { return n <= int(c.head()>>cellLenBits)*8 }

// deadline returns the TTL deadline (0 = none), a header word: words(0) has it.
func (c *seqCell) deadline() int64 { return int64(c.words(0)[1].Load()) }

// expired is the engine's one expiry rule: the cell carries a deadline and
// now has reached it — inclusive, so a key is expired the nanosecond its
// deadline arrives. The clock is read only for a cell with a deadline, and
// once per *now: a caller deciding several cells starts *now at 0 and
// shares it.
func (c *seqCell) expired(now *int64) bool {
	d := c.deadline()
	if d == 0 {
		return false
	}
	if *now == 0 {
		*now = clock.Nanos()
	}
	return *now >= d
}

// set stores value and deadline in place, with plain stores on amd64
// (seq.StoreWords): its caller must be the cell's only writer, and a reader
// must either validate its copy or be ordered after set by a lock. Each of
// set's four contexts is one of those:
//   - newSeqCell: the cell is not yet published, so no reader can reach it;
//     the pointer store that publishes it comes after set.
//   - a shard's write section (applyLocked, between kvShard.wlock and
//     wunlock): the write lock excludes other writers, and an optimistic
//     reader that sees the store half-applied is invalidated by the
//     section's seq bump.
//   - Memtable.Put, under the memtable's write lock: its readers take
//     the same lock for read, so none overlaps the store.
//   - recovery (recoverShardRecord, rollForwardTxns): the engine is not yet
//     shared, so there is no other goroutine at all.
func (c *seqCell) set(value []byte, deadline int64) {
	mem := c.words(c.head())
	head := cellHead(len(mem)-cellHeaderWords, len(value))
	seq.StoreWords(mem[cellHeaderWords:], value)
	seq.Store(&mem[0], head)
	seq.Store(&mem[1], uint64(deadline))
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

// appendTo appends the cell's bytes to buf and returns the result, growing
// buf only when it lacks room. Safe to call with no lock held; the copy may
// be torn and the caller must validate the surrounding seq section before
// trusting it. The length is the clamped head (cellLen), so even a torn copy
// stays inside the cell (seq.LoadWords).
func (c *seqCell) appendTo(buf []byte) []byte {
	head := c.head()
	n, base := cellLen(head), len(buf)
	buf = slices.Grow(buf, n)[:base+n]
	seq.LoadWords(buf[base:], c.words(head)[cellHeaderWords:])
	return buf
}

// bytes returns a fresh copy of the cell's value. Non-nil even for empty
// values, so callers can use nil as an absence marker.
func (c *seqCell) bytes() []byte {
	return c.appendTo(make([]byte, 0, c.length()))
}
