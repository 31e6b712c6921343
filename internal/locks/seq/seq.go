// Package seq implements the sequence counter of a seqlock [9, 23, 29], the
// optimistic-invisible-reader design the paper surveys as related work (§2).
//
// Readers write nothing — they validate a sequence number before and after
// the critical section and retry on interference — so they generate zero
// coherence traffic on synchronization state. The price is that readers can
// observe inconsistent intermediate state mid-section and must be written to
// tolerate it. This is the zero-coherence endpoint against which BRAVO's
// pessimistic fast path can be compared.
//
// Count is the bare counter, with no writer serialization of its own: the
// KV engine's optimistic read path brackets its copies with it, where the
// shard's BRAVO write lock already serializes writers, and bias.Adaptor
// brackets its window snapshot the same way. StoreWords and Store are the
// writer's stores inside such a section and LoadWords a reader's copy, all
// plain moves on amd64: a seqlock needs its accesses in order, nothing more.
package seq

import "sync/atomic"

// Count is a bare sequence counter: even when quiescent, odd while a write
// section is open. It does NOT serialize writers — callers must bracket
// WriteBegin/WriteEnd inside whatever exclusion already covers the data
// (the shard write lock in the KV engine). The zero value is quiescent.
type Count struct {
	seq atomic.Uint64
}

// WriteBegin opens a write section, making the sequence odd. The caller must
// already hold writer exclusion over the protected data.
func (c *Count) WriteBegin() { c.seq.Add(1) }

// WriteEnd closes a write section, making the sequence even.
func (c *Count) WriteEnd() { c.seq.Add(1) }

// TryBegin samples the sequence without waiting. ok is false when a write
// section is open (sequence odd), in which case the caller should back off
// or fall back rather than spin.
func (c *Count) TryBegin() (s uint64, ok bool) {
	s = c.seq.Load()
	return s, s&1 == 0
}

// Retry reports whether a read section that started at sequence s overlapped
// a write and must be retried (or abandoned for a pessimistic fallback).
func (c *Count) Retry(s uint64) bool { return c.seq.Load() != s }
