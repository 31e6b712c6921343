package kvs

import (
	"sync/atomic"

	"github.com/bravolock/bravo/internal/clock"
)

// DefaultSeqReadAttempts is how many optimistic (seqlock) read attempts the
// engine makes before falling back to the shard's read lock, when
// SetSeqReadAttempts has not overridden it. Small on purpose: one writer
// collision usually clears within an attempt or two, and a shard busy
// enough to keep invalidating readers is exactly the case the BRAVO
// pessimistic path exists for.
const DefaultSeqReadAttempts = 3

// seqStore is the keyed storage shared by a Sharded shard and a Memtable
// stripe: one key→cell table (seqIndex, probed by locked and lock-free reads
// alike) and the TTL deadlines. All mutation goes through
// putLocked/deleteLocked/removeLocked/replaceLocked under the owner's write
// lock — the bracketing invariant (DESIGN.md) is that on a shard every such
// mutation happens between kvShard.wlock and wunlock, so optimistic readers
// can never trust a torn view of either structure.
type seqStore struct {
	idx seqIndex
	// exp tracks PutTTL deadlines (see ttlMap); authoritative for the
	// locked paths and Reap. Cells mirror the deadline atomically for the
	// optimistic path. Guarded by the owner's lock.
	exp ttlMap
}

// putLocked applies one insert-or-update under the already-held write lock:
// in-place value reuse plus TTL bookkeeping (deadline 0 = no TTL, clearing
// any previous one). On a shard its only caller is applyLocked (write.go);
// a Memtable stripe calls it from put. fresh reports that a new cell was
// allocated (absent key, or a value that outgrew the cell) rather than
// updated in place.
func (st *seqStore) putLocked(key uint64, value []byte, deadline int64) (fresh bool) {
	if c := st.idx.lookup(key); c != nil && c.fits(len(value)) {
		c.set(value, deadline)
	} else {
		st.idx.put(key, newSeqCell(value, deadline))
		fresh = true
	}
	st.exp.set(key, deadline)
	return fresh
}

// removeLocked unconditionally removes key from the table and the TTL set,
// under the already-held write lock.
func (st *seqStore) removeLocked(key uint64) {
	st.idx.del(key)
	if len(st.exp) > 0 {
		delete(st.exp, key)
	}
}

// deleteLocked removes key under the already-held write lock, reporting
// whether it was visibly present and whether it was a TTL-expired residue.
func (st *seqStore) deleteLocked(key uint64) (ok, expired bool) {
	if st.idx.lookup(key) == nil {
		return false, false
	}
	expired = st.expiredLocked(key)
	st.removeLocked(key)
	return !expired, expired
}

// replaceLocked empties the store (a replication snapshot install), under the
// already-held write lock.
func (st *seqStore) replaceLocked() {
	st.idx.reset()
	st.exp = nil
}

// expiredLocked reports whether key carries a TTL whose deadline has passed
// (inclusive; see ttlMap.expired). Callers hold the owner's lock, read or
// write.
func (st *seqStore) expiredLocked(key uint64) bool {
	return st.exp.expired(key)
}

// seqReadHook, when set, runs between an optimistic read's copy and its
// validation — the window a concurrent writer tears. Tests install it to
// force deterministic collisions and to fuzz interleavings.
var seqReadHook atomic.Pointer[func(key uint64)]

// seqGetInto attempts up to attempts optimistic reads of key against the
// shard's write-section counter. On success (done=true) it returns the
// value appended to buf[:0], presence, and whether a present entry was
// TTL-expired (reported as a miss, like the locked path); retries counts
// the failed attempts before the success. done=false means every attempt
// collided and the caller must take the pessimistic path; the returned
// buffer then carries buf's storage back to the caller.
func (sh *kvShard) seqGetInto(key uint64, buf []byte, attempts int) (out []byte, ok, expired bool, retries int, done bool) {
	for a := 0; a < attempts; a++ {
		s0, even := sh.seqc.TryBegin()
		if !even {
			retries++
			continue
		}
		c := sh.idx.lookup(key)
		out = buf[:0]
		var deadline int64
		if c != nil {
			out = c.appendTo(out)
			deadline = c.deadline()
		}
		if h := seqReadHook.Load(); h != nil {
			(*h)(key)
		}
		if sh.seqc.Retry(s0) {
			retries++
			continue
		}
		// Validated: the copy is exactly what some quiescent instant held.
		if c == nil {
			return buf[:0], false, false, retries, true
		}
		if deadline != 0 && clock.Nanos() >= deadline {
			return buf[:0], false, true, retries, true
		}
		return out, true, false, retries, true
	}
	return buf[:0], false, false, retries, false
}
