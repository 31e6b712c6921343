package kvs

// The write path: one mutation type and one write section.
//
// Every change to a shard's contents — Put, Delete, a batch, a transaction's
// staged write, a replicated entry, a replayed log entry — is an Entry, and
// every Entry reaches a store through the same two halves: shardWAL.append
// logs a run of entries as one record, applyLocked applies the run inside
// the shard's write section and does all of the put/delete accounting.
// kvShard.write is the two halves around one shard's locks. The paths that
// cannot use it whole call the halves themselves: Txn holds several shards
// at once, a follower's ApplyReplRecord has no log, and recovery runs
// before the engine is shared and so takes no lock.
//
// Lock order, stated once: a shard's WAL mutex, then that shard's lock; a
// transaction takes every participant's WAL mutex in ascending shard order,
// then every participant's shard lock in ascending shard order. Checkpoints
// and snapshot frames follow the same rank with the shard's read lock.

// Op is an Entry's operation.
type Op byte

// The two mutations. A put with a time-to-live is an OpPut whose Deadline is
// set; the zero Op is not an operation (a transaction's untouched slot).
const (
	OpPut Op = iota + 1
	OpDelete
)

// Entry is one mutation of one key.
type Entry struct {
	Op  Op
	Key uint64
	// Deadline is an OpPut's expiry as an absolute clock.Nanos value, zero
	// for none. It is absolute everywhere in memory: only the record codec
	// (wal.go, snapshot.go) converts to and from the remaining time that
	// files and the replication wire carry, re-anchoring on the decoder's
	// clock, so a TTL never fires early for time spent down or in transit.
	Deadline int64
	// Value is an OpPut's bytes. A decoded entry's Value aliases the decode
	// buffer; applyLocked copies it into the shard's table.
	Value []byte
}

// write is the write section: it logs ents — one shard's mutations, in
// order — as one WAL record (one fsync under SyncAlways), applies them under
// one write-lock acquisition (for a BRAVO shard, one bias revocation), and
// publishes the record's LSN. It warms the entries' cells first, outside
// both locks. hits is the number of deletes that removed a visible key.
// ents is not retained.
func (sh *kvShard) write(ents []Entry) (hits int) {
	sh.warm(ents)
	w := sh.wal
	w.lock()
	if w != nil {
		w.append(nil, ents, len(ents))
	}
	sh.wlock()
	hits, n := sh.applyLocked(ents)
	sh.wunlock()
	w.unlock()
	sh.adaptTick(n)
	return hits
}

// applyLocked applies ents to the shard's store in order — on a live engine
// inside the open write section, during recovery before the engine is shared
// — and is the only place puts and deletes are counted: totals before rares
// (see the Stats load-order note), every entry alike wherever it came from.
// It returns the deletes that hit and the last total it produced, the value
// adaptTick samples.
func (sh *kvShard) applyLocked(ents []Entry) (hits int, n uint64) {
	dels := 0
	for i := range ents {
		if ents[i].Op == OpDelete {
			dels++
		}
	}
	if dels > 0 {
		n = sh.ops.deletes.Add(uint64(dels))
	}
	if puts := len(ents) - dels; puts > 0 {
		n = sh.ops.puts.Add(uint64(puts))
	}
	fresh, expired := 0, 0
	for i := range ents {
		switch e := &ents[i]; e.Op {
		case OpPut:
			if sh.putLocked(e.Key, e.Value, e.Deadline) {
				fresh++
			}
		case OpDelete:
			ok, exp := sh.deleteLocked(e.Key)
			if ok {
				hits++
			}
			if exp {
				expired++
			}
		}
	}
	if fresh > 0 {
		sh.ops.putsFresh.Add(uint64(fresh))
	}
	if dels > hits {
		sh.ops.delMisses.Add(uint64(dels - hits))
	}
	if expired > 0 {
		sh.ops.expired.Add(uint64(expired))
	}
	return hits, n
}

// countBatch records one combined write application of n entries.
func (sh *kvShard) countBatch(n int) {
	sh.ops.wbatches.Add(1)
	sh.ops.wbatchKeys.Add(uint64(n))
}

// ownedBy returns the entries of ents whose keys hash to shard: what one
// participant keeps of a transaction witness record, which carries every
// participant's entries.
func (s *Sharded) ownedBy(ents []Entry, shard int) []Entry {
	var own []Entry
	for _, e := range ents {
		if s.ShardOf(e.Key) == shard {
			own = append(own, e)
		}
	}
	return own
}
