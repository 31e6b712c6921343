package kvs

import "sync"

// The asynchronous write queue: PutAsync enqueues a write on its shard's
// queue instead of taking the shard's write lock, and queued writes are
// applied in enqueue order as one combined batch — by whichever PutAsync
// call fills the queue to the coalescing threshold, or by Flush. Writers
// therefore coalesce (one write-lock acquisition, and for BRAVO shards one
// bias revocation, per batch instead of per key) while the BRAVO read fast
// path stays biased between batch applications instead of being revoked on
// every key.
//
// The trade is ordering relaxation on queued keys: a queued write is
// invisible to every read path until its batch is applied, and a
// synchronous Put/MultiPut/Delete to the same key issued between the
// enqueue and the batch application is overwritten (or resurrected) when
// the batch lands — the queue knows nothing of writes that bypassed it.
// Callers that mix paths on one key, or need read-your-writes, call Flush
// between them; keys written only synchronously are never affected.

// DefaultAsyncBatch is the per-shard queue depth at which PutAsync applies
// the queued batch inline, when SetAsyncBatch has not overridden it.
const DefaultAsyncBatch = 64

// writeQueue is one shard's pending asynchronous writes. mu guards only
// the enqueue/detach of the slices — never held across the batch
// application, so enqueuers are not blocked behind the shard write lock.
// apply serializes detach+apply as one step, so batches reach the shard in
// detach order and a key's newer queued write can never be overwritten by
// an older one racing through a second applier.
type writeQueue struct {
	mu    sync.Mutex
	ents  []Entry
	apply sync.Mutex
}

// SetAsyncBatch sets the per-shard coalescing threshold for PutAsync
// (n <= 0 restores DefaultAsyncBatch). Safe to call at any time.
func (s *Sharded) SetAsyncBatch(n int) {
	s.asyncN.Store(int64(n))
}

func (s *Sharded) asyncBatch() int {
	if n := s.asyncN.Load(); n > 0 {
		return int(n)
	}
	return DefaultAsyncBatch
}

// PutAsync enqueues key→value on the key's shard write queue. The value is
// copied at enqueue, so the caller may reuse its buffer immediately. The
// write becomes visible when its batch is applied: inline by the PutAsync
// call that fills the queue to the coalescing threshold (SetAsyncBatch),
// or by Flush. Per-shard enqueue order is preserved among queued writes,
// but a synchronous write to the same key issued while this one sits
// queued is clobbered when the batch applies — Flush first when mixing
// paths on one key (see the package note above).
func (s *Sharded) PutAsync(key uint64, value []byte) {
	sh := s.shardOf(key)
	sh.q.mu.Lock()
	sh.q.ents = append(sh.q.ents, Entry{Op: OpPut, Key: key, Value: append([]byte(nil), value...)})
	full := len(sh.q.ents) >= s.asyncBatch()
	sh.q.mu.Unlock()
	sh.ops.asyncPuts.Add(1)
	if full {
		sh.drainQueue()
	}
}

// drainQueue detaches the shard's queued writes and hands them, in enqueue
// order, to the write section — one WAL record, one fsync under SyncAlways,
// one lock acquisition for the whole batch: a queued write becomes durable
// when its batch applies, not when PutAsync returns. The queue's apply mutex
// keeps concurrent drains from reordering batches.
func (sh *kvShard) drainQueue() int {
	sh.q.apply.Lock()
	sh.q.mu.Lock()
	ents := sh.q.ents
	sh.q.ents = nil
	sh.q.mu.Unlock()
	if len(ents) > 0 {
		sh.write(ents)
		sh.countBatch(len(ents))
	}
	sh.q.apply.Unlock()
	return len(ents)
}

// Flush applies every queued asynchronous write, shard by shard, and
// returns the number of writes applied. After Flush returns, every
// PutAsync that returned before Flush was called is visible to reads.
func (s *Sharded) Flush() int {
	total := 0
	for i := range s.shards {
		total += s.shards[i].drainQueue()
	}
	return total
}

// Discard drops every queued asynchronous write unapplied. A deposed
// primary calls it before Close, whose Flush would otherwise commit what
// it queued before its fence.
func (s *Sharded) Discard() {
	for i := range s.shards {
		q := &s.shards[i].q
		q.mu.Lock()
		q.ents = nil
		q.mu.Unlock()
	}
}
