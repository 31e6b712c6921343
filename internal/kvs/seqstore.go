package kvs

import (
	"sync/atomic"
	"unsafe"

	"github.com/bravolock/bravo/internal/arch"
	"github.com/bravolock/bravo/internal/rwl"
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
// alike; a key's TTL deadline lives in its cell) and the set of keys that
// carry one. All mutation goes through
// putLocked/deleteLocked/removeLocked/replaceLocked under the owner's write
// lock — the bracketing invariant (DESIGN.md) is that on a shard every such
// mutation happens between kvShard.wlock and wunlock, so optimistic readers
// can never trust a torn view of either structure.
type seqStore struct {
	idx seqIndex
	// exp is the set of keys written with a TTL (see ttlMap): Reap's work
	// list and the TTLKeys count. Guarded by the owner's lock.
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

// lookahead caps the bytes one prefetch hint covers: the first four lines
// of a cell (warm) or of the log's next record (shardWAL.place).
const lookahead = 4 * arch.CacheLineSize

// readSpan is what a read prefetches of a cell once the index yields it, so
// header and value miss together: the header and two value lines, all of a
// 128-byte value's cell at any offset. On BenchmarkShardedGetParallel -cpu 1
// the median read took 329 ns with it, 356 and 375 at 192 and 256 bytes,
// and 414 with none. A longer value's later lines are left to the copy.
const readSpan = cellHeaderWords*8 + 2*arch.CacheLineSize

// warm prefetches, with no lock held, the cells ents will write: each key's
// header and as many value lines as the entry stores. The lookup is the
// lock-free probe multiGet sizes its arena with, and memory-safe for the
// same reason; its cell is only a hint, since the lookup under the write
// lock decides. So the section that follows runs on warm lines.
func (st *seqStore) warm(ents []Entry) {
	for i := range ents {
		if c := st.idx.lookup(ents[i].Key); c != nil {
			arch.Prefetch(unsafe.Pointer(c), min(cellHeaderWords*8+len(ents[i].Value), lookahead))
		}
	}
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
	c := st.idx.lookup(key)
	if c == nil {
		return false, false
	}
	var now int64
	expired = c.expired(&now)
	st.removeLocked(key)
	return !expired, expired
}

// replaceLocked empties the store (a replication snapshot install), under the
// already-held write lock.
func (st *seqStore) replaceLocked() {
	st.idx.reset()
	st.exp = nil
}

// seqReadHook, when set, runs between an optimistic read's copy and its
// validation — the window a concurrent writer tears. Tests install it to
// force deterministic collisions and to fuzz interleavings.
var seqReadHook atomic.Pointer[func(key uint64)]

// read is the read section, the one way a Get or a MultiGet reads a shard:
// it copies the live values of group — this shard's keys, by their positions
// in keys — onto arena, points vals at those positions' copies (nil for an
// absent or expired key), and returns the hits and the grown arena. Up to
// att copies are made with no lock held, each bracketed by the shard's
// write-section counter and kept only if no writer entered it: a validated
// copy is exactly what some quiescent instant held, the guarantee the read
// lock gives. The next copy is made under the shard read lock. Every attempt
// rewrites every position of the group from the arena's starting length, so
// a torn attempt leaves nothing behind, and each value is capacity-clipped,
// so appending to one never writes into the next. The section is counted
// once on the reader's stripe: total (rdGets or rdBatches) first — see the
// Stats load-order note — then its misses or keys, retries, whether it took
// the lock, and expiries.
func (sh *kvShard) read(h *rwl.Reader, att, total int, keys []uint64, group []shardPos, vals [][]byte, arena []byte) (int, []byte) {
	base := len(arena)
	hits, expired, try := 0, 0, 0
	for ; ; try++ {
		locked := try >= att
		var s0 uint64
		var tok rwl.Token
		if locked {
			tok = sh.rlock(h)
		} else if s, even := sh.seqc.TryBegin(); even {
			s0 = s
		} else {
			continue // a writer is inside: that attempt is spent
		}
		arena, hits, expired = arena[:base], 0, 0
		var now int64
		for _, p := range group {
			var v []byte
			c := sh.idx.lookup(keys[p.pos])
			if c != nil {
				arch.Prefetch(unsafe.Pointer(c), readSpan)
			}
			switch {
			case c == nil:
			case c.deadline() != 0 && c.expired(&now): // a TTL-free key skips the call
				expired++
			default:
				a := len(arena)
				arena = c.appendTo(arena)
				v = arena[a:len(arena):len(arena)]
				hits++
			}
			vals[p.pos] = v
		}
		if locked {
			sh.runlock(h, tok)
			break
		}
		if hook := seqReadHook.Load(); hook != nil {
			(*hook)(keys[group[0].pos])
		}
		if !sh.seqc.Retry(s0) {
			break
		}
	}
	rd := sh.stripe(h)
	n := rd.n[total].Add(1)
	if total == rdBatches {
		n = rd.n[rdBatchKeys].Add(uint64(len(group)))
	} else if hits < len(group) {
		rd.n[rdGetMisses].Add(uint64(len(group) - hits))
	}
	if try > 0 {
		rd.n[rdSeqRetries].Add(uint64(try))
	}
	if try >= att {
		rd.n[rdLocked].Add(1)
		if att > 0 {
			rd.n[rdSeqFallbacks].Add(1)
		}
	}
	if expired > 0 {
		rd.n[rdExpired].Add(uint64(expired))
	}
	sh.adaptTick(n)
	return hits, arena
}
