// Package kvs provides the repository's key-value engines: the substrates
// of the paper's rocksdb experiments — a memtable with one GetLock
// reader-writer lock and in-place updates (the readwhilewriting benchmark of
// §5.5) and a single-lock hash table cache (the persistent-cache
// hash_table_bench of §5.6) — plus Sharded, the scale-out engine that
// stripes the keyspace across per-shard locks (see sharded.go).
//
// The paper ran rocksdb with --inplace_update_support=1 and
// --inplace_update_num_locks=1: readers of ::Get take GetLock for read on
// every lookup, and with one stripe every thread hammers the same
// reader-writer lock — precisely the centralized-reader-indicator bottleneck
// BRAVO removes. Both structures are parameterized by the lock constructor,
// which is how the benchmarks interpose different locks, LD_PRELOAD-style.
//
// A Sharded shard keeps one of each: the lock its factory built, called
// directly; one key→cell table (seqIndex) serving locked reads, lock-free
// reads and iteration; one TTL set. Every write section opens and closes
// through kvShard.wlock/wunlock, whose sequence bump is what lets reads
// skip the lock (DESIGN.md, "Optimistic reads").
package kvs

import (
	"encoding/binary"

	"github.com/bravolock/bravo/internal/rwl"
)

// Memtable is a rocksdb-style in-memory table with in-place value updates
// guarded by one reader-writer lock, the paper's one GetLock stripe. It is
// the paper-figure substrate (Figure 5): its benchmarks compare lock
// implementations, so every read takes the lock — there is no optimistic
// path here, and no TTL.
type Memtable struct {
	lock rwl.RWLock
	seqStore
}

// NewMemtable returns an empty memtable guarded by a lock from mkLock.
func NewMemtable(mkLock rwl.Factory) *Memtable {
	return &Memtable{lock: mkLock()}
}

// GetInto appends the value stored under key to buf[:0] and returns the
// filled slice (buf[:0] itself on a miss), taking GetLock for read (the
// rocksdb ::Get path the paper instruments). The value is copied out while
// the lock is held — as rocksdb's MemTable::Get copies into the caller's
// string — since in-place Put mutates the stored buffer; a reused buffer
// makes reads allocation-free.
func (m *Memtable) GetInto(key uint64, buf []byte) ([]byte, bool) {
	tok := m.lock.RLock()
	v := m.idx.lookup(key)
	out := buf[:0]
	if v != nil {
		out = v.appendTo(out)
	}
	m.lock.RUnlock(tok)
	return out, v != nil
}

// Put performs an in-place update (or insert) of key, taking GetLock for
// write. putLocked reuses the existing cell when the value fits, as
// rocksdb's inplace_update_support does (at the cell's word granularity).
func (m *Memtable) Put(key uint64, value []byte) {
	m.lock.Lock()
	m.putLocked(key, value, 0)
	m.lock.Unlock()
}

// EncodeValue builds the fixed-format value used by the benchmarks: an
// 8-byte counter the writer bumps in place.
func EncodeValue(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}
