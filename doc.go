// Package bravo implements BRAVO — Biased Locking for Reader-Writer Locks
// (Dice & Kogan, USENIX ATC 2019) — as a composable Go library, together
// with the reader-writer locks the paper evaluates it against.
//
// BRAVO is a transformation, not a lock: New wraps any existing
// reader-writer lock A and yields BRAVO-A, a lock with the same admission
// policy and write-side behaviour but scalable concurrent reading. Readers
// publish themselves with a single CAS into a process-wide visible readers
// table instead of updating A's central reader indicator; writers pass
// through A and, when reader bias is set, revoke it: one swap clears the bias
// and collects the lock's occupancy summary, then only the table sectors its
// readers published in are scanned.
// A built-in policy bounds the worst-case writer slow-down to about
// 1/(N+1) (N = 9 by default), the paper's primum-non-nocere guarantee.
//
// # Quick start
//
//	l := bravo.New(bravo.NewBA())     // BRAVO over a Brandenburg-Anderson lock
//	tok := l.RLock()                  // fast path: one CAS, no shared counter
//	defer l.RUnlock(tok)              // the token carries the table slot
//
// Writers use Lock/Unlock as usual. The token-passing read API mirrors the
// paper's observation that "the slot value must be passed from the read
// lock operator to the corresponding unlock".
//
// Hot read paths can pin a per-goroutine Reader handle (NewReader) and use
// RLockH/RUnlockH: the identity is derived once and the table slot cached
// per lock, so the steady-state read is one CAS with no hashing, and
// unbalanced unlocks are detected from the handle's held-slot record.
//
// Beyond the lock itself, NewShardedKV builds a sharded key-value engine
// whose per-shard locks come from any of the substrates above — the
// read-mostly serving workload the paper's rocksdb experiments point at,
// with BRAVO's one-CAS read path per shard (and handle-threaded
// GetH/GetIntoH/MultiGetH: one identity per request, not per shard). The
// engine's write side batches: MultiPut/MultiDelete apply each shard's
// group under one write-lock acquisition, and PutTTL/Reap give keys
// lazy-then-reaped expiry. cmd/kvserv serves the engine over HTTP with one
// pinned Reader per connection.
//
// OpenShardedKV makes the engine durable: a per-shard write-ahead log with
// group commit (each of the batches above is one CRC-framed record and,
// under SyncAlways, one fsync — the same amortize-the-slow-path move
// BRAVO makes for bias revocation), Checkpoint snapshots with log
// truncation, and crash recovery that replays snapshot + log tail,
// dropping a torn final record. See DESIGN.md's "Durability" section.
//
// OpenFollowerKV scales the reads out of the process entirely: every WAL
// record carries a per-shard LSN, a durable primary streams the log over
// the wire protocol, and followers replay it into in-memory replicas — read traffic
// fans out to follower fleets while writes serialize through the primary,
// with commit LSNs as read-your-writes tokens. See DESIGN.md's
// "Replication" section and README's failure matrix.
//
// The Example functions in example_test.go are runnable documentation for
// each of these surfaces: ExampleNew (the transformation), ExampleNewReader
// (handles), ExampleNewShardedKV, ExampleShardedKV_MultiPut,
// ExampleShardedKV_PutTTL, ExampleOpenShardedKV (durability), and
// ExampleOpenFollowerKV (replication); go test runs them all.
//
// See DESIGN.md for the system inventory, EXPERIMENTS.md for the
// reproduction of the paper's figures and tables, and the examples/
// directory for runnable programs.
package bravo
