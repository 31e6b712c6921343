// Package kvs provides the repository's key-value engines: the substrates
// of the paper's rocksdb experiments — a memtable with striped GetLock
// reader-writer locks and in-place updates (the readwhilewriting benchmark
// of §5.5) and a single-lock hash table cache (the persistent-cache
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
	"fmt"
	"time"

	"github.com/bravolock/bravo/internal/hash"
	"github.com/bravolock/bravo/internal/rwl"
)

// Memtable is a rocksdb-style in-memory table with in-place value updates
// guarded by striped reader-writer locks. It is the paper-figure substrate
// (Figure 5): its benchmarks compare lock implementations, so every read
// takes the stripe lock — there is no optimistic path here.
type Memtable struct {
	stripes []stripe
	mask    uint64
}

type stripe struct {
	lock rwl.RWLock
	// seqStore is the stripe's keyed storage (key→cell table + TTL'd
	// keys); Memtable expiry is lazy-only (no reaper): expired
	// entries stay resident but invisible until overwritten.
	seqStore
}

// NewMemtable returns a memtable with the given number of GetLock stripes
// (a power of two; the paper's configuration uses 1).
func NewMemtable(stripes int, mkLock rwl.Factory) (*Memtable, error) {
	if stripes <= 0 || stripes&(stripes-1) != 0 {
		return nil, fmt.Errorf("kvs: stripe count %d is not a positive power of two", stripes)
	}
	m := &Memtable{stripes: make([]stripe, stripes), mask: uint64(stripes - 1)}
	for i := range m.stripes {
		m.stripes[i].lock = mkLock()
	}
	return m, nil
}

func (m *Memtable) stripeOf(key uint64) *stripe {
	return &m.stripes[hash.Mix64(key)&m.mask]
}

// Get returns the value stored under key, taking the stripe's GetLock for
// read (the rocksdb ::Get path the paper instruments). The value is copied
// out while the lock is held — as rocksdb's MemTable::Get copies into the
// caller's string — since in-place Put mutates the stored buffer.
func (m *Memtable) Get(key uint64) ([]byte, bool) {
	return m.GetInto(key, nil)
}

// GetInto is Get with caller-managed memory: the value is appended to
// buf[:0] and the filled slice returned (buf[:0] itself on a miss), so a
// reused buffer makes reads allocation-free.
func (m *Memtable) GetInto(key uint64, buf []byte) ([]byte, bool) {
	s := m.stripeOf(key)
	tok := s.lock.RLock()
	v := s.idx.lookup(key)
	var now int64
	ok := v != nil && !v.expired(&now) // lazy expiry
	out := buf[:0]
	if ok {
		out = v.appendTo(out)
	}
	s.lock.RUnlock(tok)
	return out, ok
}

// Put performs an in-place update (or insert) of key, taking the stripe's
// GetLock for write. A plain Put clears any TTL a previous PutTTL attached.
func (m *Memtable) Put(key uint64, value []byte) {
	m.put(key, value, 0)
}

// PutTTL is Put with a time-to-live: the key expires — becomes invisible
// to Get — once ttl elapses, inclusively at the deadline. Memtable expiry
// is lazy-only; the sharded engine adds incremental reaping (Sharded.Reap).
func (m *Memtable) PutTTL(key uint64, value []byte, ttl time.Duration) {
	m.put(key, value, ttlDeadline(ttl))
}

func (m *Memtable) put(key uint64, value []byte, deadline int64) {
	s := m.stripeOf(key)
	s.lock.Lock()
	// In-place update semantics: putLocked reuses the existing cell when
	// the value fits, as rocksdb's inplace_update_support does (at the
	// cell's word granularity).
	s.putLocked(key, value, deadline)
	s.lock.Unlock()
}

// Len returns the total number of keys, taking every stripe lock for read.
func (m *Memtable) Len() int {
	n := 0
	for i := range m.stripes {
		s := &m.stripes[i]
		tok := s.lock.RLock()
		n += s.idx.live
		s.lock.RUnlock(tok)
	}
	return n
}

// EncodeValue builds the fixed-format value used by the benchmarks: an
// 8-byte counter the writer bumps in place.
func EncodeValue(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}
