package kvs

// Atomic multi-key transactions over the sharded engine, built as
// shard-ordered two-phase locking on the locks the engine already has.
//
// A transaction declares its key set up front (bounded by MaxTxnKeys), and
// Txn acquires every participant shard's WAL mutex in ascending shard
// order, then every participant shard's write lock in ascending shard
// order — the write section's lock order (write.go) extended across shards,
// so transactions deadlock neither with each other nor with any
// single-shard path, by construction rather than by timeout. With all
// locks held the transaction body runs against a staged overlay: reads see
// the shard state plus the transaction's own writes, writes stage without
// touching the maps, and an error return (or a zero-write body) releases
// everything with nothing logged and nothing applied.
//
// Commit durability: a transaction whose staged writes land on one shard
// commits as an ordinary v2 group-commit record — indistinguishable from a
// MultiPut batch. One that spans shards appends a v4 witness record (see
// walVersionTxn in wal.go) to EVERY participant's log at that shard's own
// next LSN, carrying all entries plus the participant list; each log
// applier keeps only its own shard's entries, and recovery uses any
// surviving copy to roll forward participants whose copy was torn away —
// so atomicity survives crashes, replication, and failover through the
// machinery those paths already have.

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"time"
)

// MaxTxnKeys bounds a transaction's distinct declared keys. The bound keeps the
// lock footprint (and the witness record fan-out) small and the lock hold
// times short; it is a safety rail, not a tuning knob.
const MaxTxnKeys = 16

// Transaction validation errors.
var (
	// ErrTxnNoKeys reports a transaction declared with an empty key set.
	ErrTxnNoKeys = errors.New("kvs: transaction declares no keys")
	// ErrTxnTooManyKeys reports a transaction declaring more than
	// MaxTxnKeys distinct keys.
	ErrTxnTooManyKeys = fmt.Errorf("kvs: transaction declares more than %d keys", MaxTxnKeys)
)

// Tx is the staged view a transaction body operates on: reads merge the
// shard state (as of the locked instant) with the transaction's own staged
// writes, and writes stage until the body returns nil. All methods accept
// only keys declared to Txn — touching an undeclared key panics, because
// its shard may not be locked and the 2PL guarantee would silently rot.
// A Tx is valid only inside its body, on the body's goroutine; values it
// returns must not be retained after the body returns.
type Tx struct {
	s    *Sharded
	keys []uint64
	cur  [][]byte // nil = absent (expired counts as absent)
	// staged is parallel to keys: the last mutation staged for each, with
	// the zero Op marking a key the body has not written.
	staged []Entry
}

// idx resolves a declared key to its position, panicking on an undeclared
// one (a programming error of the same class as an unbalanced unlock).
func (tx *Tx) idx(key uint64) int {
	for i, k := range tx.keys {
		if k == key {
			return i
		}
	}
	panic(fmt.Sprintf("kvs: transaction touched key %#x, which it did not declare", key))
}

// Get returns the value the transaction observes for key: its own staged
// write if it made one, otherwise the value visible at the locked instant.
// The returned slice must not be retained or mutated after the body
// returns.
func (tx *Tx) Get(key uint64) ([]byte, bool) {
	i := tx.idx(key)
	if w := tx.staged[i]; w.Op != 0 {
		return w.Value, w.Op == OpPut
	}
	return tx.cur[i], tx.cur[i] != nil
}

// Put stages a write of value under key. Within one transaction the last
// staged operation per key wins.
func (tx *Tx) Put(key uint64, value []byte) {
	tx.staged[tx.idx(key)] = Entry{Op: OpPut, Key: key, Value: value}
}

// PutTTL stages a write with a time-to-live, with PutTTL's semantics.
func (tx *Tx) PutTTL(key uint64, value []byte, ttl time.Duration) {
	tx.staged[tx.idx(key)] = Entry{Op: OpPut, Key: key, Deadline: ttlDeadline(ttl), Value: value}
}

// Delete stages a removal of key.
func (tx *Tx) Delete(key uint64) {
	tx.staged[tx.idx(key)] = Entry{Op: OpDelete, Key: key}
}

// Txn runs body as an atomic transaction over the declared keys (at most
// MaxTxnKeys; duplicates are allowed and collapse). All participant shards
// are locked for the duration, so the body observes — and its staged
// writes replace — one consistent instant: no other writer can interleave,
// and readers see either none or all of the transaction's writes (shard by
// shard through the lock; across shards once every shard lock releases).
// A non-nil error from body aborts: nothing is logged, nothing applied,
// and the error is returned. On durable engines a committed transaction is
// logged before it is applied, like every other write.
//
// The body must not touch the engine through any other method — it holds
// the participant locks, so a nested Get/Put on a participant shard would
// self-deadlock. Everything it needs goes through the Tx.
func (s *Sharded) Txn(keys []uint64, body func(*Tx) error) error {
	if len(keys) == 0 {
		return ErrTxnNoKeys
	}
	// Dedupe in first-declared order (the Tx view's); the bound is on these.
	uk := make([]uint64, 0, min(len(keys), MaxTxnKeys))
	for _, k := range keys {
		if !slices.Contains(uk, k) {
			if len(uk) == MaxTxnKeys {
				return ErrTxnTooManyKeys
			}
			uk = append(uk, k)
		}
	}
	// Participant shards, ascending: the 2PL lock order.
	shardIdx := make([]int, 0, len(uk))
	for _, k := range uk {
		if si := s.ShardOf(k); !slices.Contains(shardIdx, si) {
			shardIdx = append(shardIdx, si)
		}
	}
	slices.Sort(shardIdx)

	// Lock phase: every participant WAL mutex, then every participant
	// shard lock, each ascending — the same global rank as the
	// single-shard write paths, extended across shards.
	if s.durable {
		for _, si := range shardIdx {
			s.shards[si].wal.mu.Lock()
		}
	}
	for _, si := range shardIdx {
		s.shards[si].wlock()
	}
	locked := true
	release := func() {
		if !locked {
			return
		}
		locked = false
		for i := len(shardIdx) - 1; i >= 0; i-- {
			s.shards[shardIdx[i]].wunlock()
		}
		if s.durable {
			for i := len(shardIdx) - 1; i >= 0; i-- {
				// unlock publishes the applied LSN, so a committed
				// transaction's read-your-writes tokens are valid the
				// moment Txn returns.
				s.shards[shardIdx[i]].wal.unlock()
			}
		}
	}
	// A panic in the body must not strand the locks (the caller may
	// recover); the staged state is simply dropped.
	defer release()

	// Read phase: capture each key's visible value at the locked instant.
	tx := &Tx{
		s:      s,
		keys:   uk,
		cur:    make([][]byte, len(uk)),
		staged: make([]Entry, len(uk)),
	}
	var now int64
	for i, k := range uk {
		if c := s.shardOf(k).idx.lookup(k); c != nil && !c.expired(&now) {
			tx.cur[i] = c.bytes()
		}
	}

	if err := body(tx); err != nil {
		for _, si := range shardIdx {
			s.shards[si].ops.txnAborts.Add(1)
		}
		release()
		return err
	}

	// Commit: the staged writes in ascending shard order, declared order
	// within a shard; each writing shard's group is a run of all.
	type shardGroup struct {
		shard int
		ents  []Entry
	}
	all := make([]Entry, 0, len(uk))
	groups := make([]shardGroup, 0, len(shardIdx))
	for _, si := range shardIdx {
		lo := len(all)
		for _, w := range tx.staged {
			if w.Op != 0 && s.ShardOf(w.Key) == si {
				all = append(all, w)
			}
		}
		if len(all) > lo {
			groups = append(groups, shardGroup{si, all[lo:]})
		}
	}

	// The two halves of the write section (write.go), under the lock phase
	// above. Log half, before any table is touched: one writing shard
	// commits as a plain record; several commit as one witness record
	// appended to each writing shard's log. The participant LSNs are all
	// known here — every WAL mutex is held — so each copy carries the full
	// list and any one copy can drive recovery's roll-forward.
	if s.durable {
		var parts []walPart
		if len(groups) > 1 {
			parts = make([]walPart, len(groups))
			for gi, g := range groups {
				parts[gi] = walPart{shard: uint32(g.shard), lsn: s.shards[g.shard].wal.lsn + 1}
			}
		}
		for _, g := range groups {
			// With one group, all is that group.
			s.shards[g.shard].wal.append(parts, all, len(g.ents))
		}
	}
	// Apply half, under the already-held shard locks.
	for _, g := range groups {
		sh := &s.shards[g.shard]
		sh.applyLocked(g.ents)
		sh.ops.txnKeys.Add(uint64(len(g.ents)))
		sh.countBatch(len(g.ents))
	}
	for _, si := range shardIdx {
		s.shards[si].ops.txnCommits.Add(1)
	}
	release()
	return nil
}

// CompareAndSwap atomically replaces key's value with new if its current
// visible value equals old. A nil old means "only if absent"; a nil new
// means "delete on match". It returns whether the swap applied. A CAS that
// finds a mismatch is a committed read-only transaction, not an abort.
func (s *Sharded) CompareAndSwap(key uint64, old, new []byte) (bool, error) {
	swapped := false
	err := s.Txn([]uint64{key}, func(tx *Tx) error {
		cur, ok := tx.Get(key)
		if old == nil {
			if ok {
				return nil
			}
		} else if !ok || !bytes.Equal(cur, old) {
			return nil
		}
		if new == nil {
			tx.Delete(key)
		} else {
			tx.Put(key, new)
		}
		swapped = true
		return nil
	})
	return swapped && err == nil, err
}
