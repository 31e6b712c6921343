package bravo_test

import (
	"fmt"
	"net"
	"os"
	"time"

	bravo "github.com/bravolock/bravo"
	"github.com/bravolock/bravo/internal/kvserv"
)

// ExampleNew shows the transformation itself: wrap any reader-writer lock
// and read through the one-CAS fast path.
func ExampleNew() {
	l := bravo.New(bravo.NewBA()) // BRAVO over a Brandenburg–Anderson lock
	tok := l.RLock()              // fast path: one CAS, no shared counter
	fmt.Println("reading")
	l.RUnlock(tok) // the token carries the table slot

	l.Lock() // writers unchanged (revoke bias if set)
	fmt.Println("writing")
	l.Unlock()
	// Output:
	// reading
	// writing
}

// ExampleNewReader pins a reader handle: the steady-state read is a single
// CAS at a cached slot — no identity derivation, no hashing — and
// unbalanced unlocks panic instead of corrupting lock state.
func ExampleNewReader() {
	l := bravo.New(bravo.NewGoRW())
	h := bravo.NewReader() // per goroutine (or per request/connection)
	for i := 0; i < 3; i++ {
		tok := l.RLockH(h) // steady state: cached-slot CAS
		l.RUnlockH(h, tok) // must pair H with H, same handle
	}
	fmt.Println("three handle reads")
	// Output: three handle reads
}

// ExampleNewShardedKV builds the serving engine: a BRAVO lock per shard,
// all shards sharing the process-wide visible-readers table.
func ExampleNewShardedKV() {
	kv, err := bravo.NewShardedKV(8, func() bravo.RWLock { return bravo.New(bravo.NewBA()) })
	if err != nil {
		panic(err)
	}
	kv.Put(1, []byte("one"))
	kv.Put(2, []byte("two"))

	h := bravo.NewReader() // one identity per request, not per shard
	v, ok := kv.GetH(h, 1)
	fmt.Println(string(v), ok)
	_, ok = kv.Get(99)
	fmt.Println(ok)
	fmt.Println(kv.Len())
	// Output:
	// one true
	// false
	// 2
}

// ExampleShardedKV_MultiPut batches writes: keys are grouped by shard and
// each shard's group is applied under a single write-lock acquisition, so
// the lock traffic — and, on BRAVO shards, the bias revocation — is
// amortized across the group.
func ExampleShardedKV_MultiPut() {
	kv, _ := bravo.NewShardedKV(4, func() bravo.RWLock { return bravo.New(bravo.NewBA()) })
	keys := []uint64{10, 20, 30}
	vals := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	kv.MultiPut(keys, vals)

	for _, v := range kv.MultiGet([]uint64{10, 20, 30, 40}) {
		fmt.Printf("%q\n", v) // the nil entry marks the absent key
	}
	fmt.Println("removed:", kv.MultiDelete(keys))
	// Output:
	// "a"
	// "b"
	// "c"
	// ""
	// removed: 3
}

// ExampleShardedKV_PutTTL attaches an expiry: the key is visible until its
// deadline (inclusive), then reads miss — lazily at first, physically once
// Reap gets to it. Deadlines here are an hour out and non-positive, so
// the example is deterministic under any scheduler.
func ExampleShardedKV_PutTTL() {
	kv, _ := bravo.NewShardedKV(4, func() bravo.RWLock { return bravo.New(bravo.NewBA()) })
	kv.PutTTL(7, []byte("durable"), time.Hour)
	_, ok := kv.Get(7)
	fmt.Println("an hour before its deadline:", ok)

	kv.PutTTL(8, []byte("ephemeral"), 0) // non-positive TTL: born expired
	_, ok = kv.Get(8)
	fmt.Println("past its deadline:", ok)
	fmt.Println("reaped:", kv.Reap(0)) // incremental removal, default budget
	// Output:
	// an hour before its deadline: true
	// past its deadline: false
	// reaped: 1
}

// ExampleOpenShardedKV makes the engine durable: writes append to a
// per-shard write-ahead log before applying (batches are one record and,
// under SyncAlways, one fsync — group commit), Checkpoint snapshots the
// shards and truncates the logs, and reopening the directory recovers
// everything, surviving the "crash" between the two opens here.
func ExampleOpenShardedKV() {
	dir, _ := os.MkdirTemp("", "bravo-kv-*")
	defer os.RemoveAll(dir)
	mk := func() bravo.RWLock { return bravo.New(bravo.NewBA()) }

	kv, _ := bravo.OpenShardedKV(dir, 4, mk, bravo.SyncAlways)
	kv.Put(1, []byte("survives"))
	kv.MultiPut([]uint64{2, 3}, [][]byte{[]byte("group"), []byte("commit")})
	kv.Close() // sync and close the logs

	kv, _ = bravo.OpenShardedKV(dir, 4, mk, bravo.SyncAlways) // recover
	defer kv.Close()
	v, _ := kv.Get(1)
	fmt.Println(string(v), kv.Len())
	// Output: survives 3
}

// ExampleOpenFollowerKV replicates the engine: a durable primary served
// over the wire protocol streams its LSN-stamped write-ahead log, and a
// follower applies it into an in-memory replica serving the same biased
// read fast paths. The primary's commit LSN is the read-your-writes token: a
// follower read gated on it never sees an older state.
func ExampleOpenFollowerKV() {
	dir, _ := os.MkdirTemp("", "bravo-repl-*")
	defer os.RemoveAll(dir)
	mk := func() bravo.RWLock { return bravo.New(bravo.NewBA()) }

	primary, _ := bravo.OpenShardedKV(dir, 4, mk, bravo.SyncNone)
	defer primary.Close()
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	srv := kvserv.New(primary, kvserv.Config{}) // durable ⇒ streams its WAL
	go srv.ServeWire(l)
	defer srv.Close()

	primary.Put(1, []byte("replicated"))
	shard := primary.ShardOf(1)
	token := primary.ShardLSN(shard) // commit LSN: the read-your-writes token

	follower, _ := bravo.OpenFollowerKV(l.Addr().String(), mk)
	defer follower.Close()
	follower.WaitMinLSN(shard, token, 5*time.Second)
	v, _ := follower.Engine().Get(1)
	fmt.Println(string(v))
	// Output: replicated
}
