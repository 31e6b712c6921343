package kvs

import (
	"sync/atomic"

	"github.com/bravolock/bravo/internal/hash"
)

// seqIndex is a shard's key→cell table, for locked and optimistic reads
// alike: an open-addressed hash table whose every slot word is atomic, so a
// reader can probe it with no lock held while a writer (under the shard
// write lock) mutates it. Go's built-in map cannot play this role — the
// runtime faults on a map read concurrent with a write — so the shard keeps
// no map: lookup serves Get, each serves iteration (Range, snapshots,
// checkpoints), live serves Len.
//
// Consistency contract: the table is only guaranteed coherent when the
// shard's write-section sequence is even, or under the shard lock. A reader
// that probes mid-write can see a slot half-claimed, a key republished, or
// a stale table — all benign, because the surrounding seq validation
// discards the read. What the atomics buy is memory safety and
// race-detector cleanliness, not ordering; what the seq bracket buys is
// ordering.
//
// Writer-side discipline (all under the shard write lock):
//
//   - A slot's cell pointer is nil until the slot is first claimed and never
//     nil again until the table is rebuilt; deletion swaps in seqTombstone.
//     Probe chains therefore only terminate at never-claimed slots, the
//     standard tombstone rule.
//   - The table grows (and purges tombstones) by copying its live slots
//     into a fresh table published with one atomic pointer store; a reader
//     mid-probe on the old table finishes its probe on a stale but
//     internally-safe view and is invalidated.
type seqIndex struct {
	tab atomic.Pointer[seqTable]
	// used counts claimed slots, tombstones included — the load factor
	// driver; live counts the slots holding a key's cell, i.e. resident keys.
	// Writer-only, under the shard write lock (live is read under the read
	// lock too, which excludes the writer).
	used, live int
}

type seqTable struct {
	mask  uint64
	slots []seqSlot
}

// seqSlot is 16 bytes, so four fill a cache line and none straddles two.
// cell carries the slot's state: nil is never claimed, seqTombstone is
// claimed and deleted, anything else is key's published cell.
type seqSlot struct {
	key  atomic.Uint64
	cell atomic.Pointer[seqCell]
}

// seqTombstone marks a deleted slot. It is a real, empty cell, so a reader
// that raced its way to it copies nothing.
var seqTombstone = newSeqCell(nil, 0)

// seqIndexMinSize is the smallest table allocated; must be a power of two.
const seqIndexMinSize = 16

// seqHome spreads key across the table. The shard selector consumed
// hash.Mix64's low bits, so within one shard those bits are constant; the
// index homes on the high bits to stay uniform.
func seqHome(key uint64) uint64 { return hash.Mix64(key) >> 32 }

// lookup probes for key, with or without the shard lock. It returns the
// published cell, nil for absent (or tombstoned) keys. Without the lock the
// result is only trustworthy under a validated seq section.
func (ix *seqIndex) lookup(key uint64) *seqCell {
	t := ix.tab.Load()
	if t == nil {
		return nil
	}
	h := seqHome(key)
	for i := uint64(0); i <= t.mask; i++ {
		s := &t.slots[(h+i)&t.mask]
		c := s.cell.Load()
		if c == nil {
			return nil
		}
		if s.key.Load() == key {
			if c == seqTombstone {
				return nil
			}
			return c
		}
	}
	return nil // saturated table (transient mid-rebuild view); a miss is safe
}

// each calls fn for every resident key and its cell, in slot order, until fn
// returns false; it reports whether the walk ran to the end. Caller holds
// the shard lock (read or write).
func (ix *seqIndex) each(fn func(key uint64, c *seqCell) bool) bool {
	t := ix.tab.Load()
	if t == nil {
		return true
	}
	for i := range t.slots {
		s := &t.slots[i]
		if c := s.cell.Load(); c != nil && c != seqTombstone && !fn(s.key.Load(), c) {
			return false
		}
	}
	return true
}

// put publishes key→cell, claiming a slot on first insert and reusing the
// key's claimed slot (or a tombstone) afterwards. A table that would pass
// 3/4 claimed is first replaced by a copy of its live slots (tombstones
// dropped), published only once it holds the entry. The copy is sized to
// be at most half claimed, so a quarter of it must be claimed afresh
// before the next copy: however inserts and deletes interleave, copying
// stays amortized O(1) per insert. Caller holds the shard write lock
// inside an open write section.
func (ix *seqIndex) put(key uint64, cell *seqCell) {
	t := ix.tab.Load()
	if t != nil && (ix.used+1)*4 <= len(t.slots)*3 {
		ix.insert(t, key, cell)
		return
	}
	t = ix.copyFor(ix.live + 1)
	ix.insert(t, key, cell)
	ix.tab.Store(t)
}

// copyFor returns an unpublished copy of the table's live slots, sized so
// that n keys leave it at most half claimed, with used and live recounted
// over it.
func (ix *seqIndex) copyFor(n int) *seqTable {
	size := seqIndexMinSize
	for size < n*2 {
		size *= 2
	}
	t := &seqTable{mask: uint64(size - 1), slots: make([]seqSlot, size)}
	ix.used, ix.live = 0, 0
	ix.each(func(k uint64, c *seqCell) bool {
		ix.insert(t, k, c)
		return true
	})
	return t
}

// reserve makes room for n more keys with no further copy. Recovery calls it
// with a snapshot's entry count: a snapshot lists keys in slot order, and a
// sorted run would pile into the low slots of every table it outgrows.
func (ix *seqIndex) reserve(n int) { ix.tab.Store(ix.copyFor(ix.live + n)) }

// insert stores key→cell in t and keeps used and live exact. The load
// factor bound in put leaves every probe chain an empty slot to end at.
func (ix *seqIndex) insert(t *seqTable, key uint64, cell *seqCell) {
	h := seqHome(key)
	tomb := -1
	for i := uint64(0); ; i++ {
		p := int((h + i) & t.mask)
		s := &t.slots[p]
		c := s.cell.Load()
		if c == nil {
			if tomb >= 0 {
				s = &t.slots[tomb]
			} else {
				ix.used++
			}
			ix.live++
			s.key.Store(key)
			s.cell.Store(cell)
			return
		}
		if s.key.Load() == key {
			s.cell.Store(cell)
			if c == seqTombstone {
				ix.live++ // the key's own tombstone, revived
			}
			return
		}
		if tomb < 0 && c == seqTombstone {
			tomb = p
		}
	}
}

// del tombstones key's slot; an absent key is a no-op. Caller holds the
// shard write lock inside an open write section.
func (ix *seqIndex) del(key uint64) {
	t := ix.tab.Load()
	if t == nil {
		return
	}
	h := seqHome(key)
	for i := uint64(0); i <= t.mask; i++ {
		s := &t.slots[(h+i)&t.mask]
		c := s.cell.Load()
		if c == nil {
			return
		}
		if s.key.Load() == key {
			if c != seqTombstone {
				s.cell.Store(seqTombstone)
				ix.live--
			}
			return
		}
	}
}

// reset drops the table and every key in it. Caller holds the shard write
// lock inside an open write section.
func (ix *seqIndex) reset() {
	ix.tab.Store(nil)
	ix.used, ix.live = 0, 0
}
