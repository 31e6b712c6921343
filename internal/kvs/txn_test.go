package kvs

// Certification of the transaction layer: API semantics, the 2PL
// atomicity guarantees under concurrency, crash atomicity of the v4
// witness protocol (torn multi-shard commits roll forward on reopen), and
// follower/failover inheritance of transactional writes through the
// replication stream.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/frame"
	"github.com/bravolock/bravo/internal/xrand"
)

// twoShardKeys returns two keys guaranteed to live on different shards.
func twoShardKeys(t *testing.T, s *Sharded) (a, b uint64) {
	t.Helper()
	a = 1
	for b = 2; b < 10_000; b++ {
		if s.ShardOf(b) != s.ShardOf(a) {
			return a, b
		}
	}
	t.Fatal("no cross-shard key pair found")
	return 0, 0
}

func TestTxnSemantics(t *testing.T) {
	s, err := NewSharded(8, mkBravo)
	if err != nil {
		t.Fatal(err)
	}
	a, b := twoShardKeys(t, s)

	if err := s.Txn(nil, func(*Tx) error { return nil }); !errors.Is(err, ErrTxnNoKeys) {
		t.Fatalf("empty key set: %v", err)
	}
	big := make([]uint64, MaxTxnKeys+1)
	for i := range big {
		big[i] = uint64(i)
	}
	if err := s.Txn(big, func(*Tx) error { return nil }); !errors.Is(err, ErrTxnTooManyKeys) {
		t.Fatalf("oversize key set: %v", err)
	}
	// Exactly MaxTxnKeys is fine, and duplicates collapse below the bound.
	if err := s.Txn(big[:MaxTxnKeys], func(*Tx) error { return nil }); err != nil {
		t.Fatalf("MaxTxnKeys keys: %v", err)
	}

	// Commit applies everything; the body sees its own staged writes,
	// including staged deletes.
	s.Put(a, []byte("old-a"))
	err = s.Txn([]uint64{a, b, a}, func(tx *Tx) error {
		if v, ok := tx.Get(a); !ok || string(v) != "old-a" {
			t.Fatalf("Tx.Get(a) = %q/%v before staging", v, ok)
		}
		tx.Put(a, []byte("new-a"))
		tx.Put(b, []byte("new-b"))
		tx.Delete(a)
		if _, ok := tx.Get(a); ok {
			t.Fatal("staged delete still visible to Tx.Get")
		}
		tx.Put(a, []byte("final-a")) // last staged op per key wins
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get(a); string(v) != "final-a" {
		t.Fatalf("a = %q after commit", v)
	}
	if v, _ := s.Get(b); string(v) != "new-b" {
		t.Fatalf("b = %q after commit", v)
	}

	// Abort leaves both shards untouched and surfaces the body's error.
	boom := errors.New("boom")
	if err := s.Txn([]uint64{a, b}, func(tx *Tx) error {
		tx.Put(a, []byte("aborted"))
		tx.Delete(b)
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("abort returned %v", err)
	}
	if v, _ := s.Get(a); string(v) != "final-a" {
		t.Fatalf("a = %q after abort", v)
	}
	if v, _ := s.Get(b); string(v) != "new-b" {
		t.Fatalf("b = %q after abort", v)
	}

	// A TTL staged born-expired commits invisible, like PutTTL.
	if err := s.Txn([]uint64{a}, func(tx *Tx) error {
		tx.PutTTL(a, []byte("gone"), -time.Second)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(a); ok {
		t.Fatal("born-expired transactional put is visible")
	}

	// Undeclared keys panic — the 2PL guarantee would silently rot.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("undeclared key did not panic")
			}
		}()
		_ = s.Txn([]uint64{a}, func(tx *Tx) error {
			tx.Put(b, []byte("x"))
			return nil
		})
	}()
	// The panic path released the locks: the shard is still writable.
	s.Put(a, []byte("alive"))
	if v, _ := s.Get(a); string(v) != "alive" {
		t.Fatal("engine wedged after in-body panic")
	}

	// Counters: commits/aborts count on every participant, keys on writers.
	total := s.Stats().Total()
	if total.TxnCommits == 0 || total.TxnAborts == 0 || total.TxnKeys == 0 {
		t.Fatalf("txn counters did not move: %+v", total)
	}
}

func TestCompareAndSwapAndUpdate(t *testing.T) {
	s, err := NewSharded(8, mkBravo)
	if err != nil {
		t.Fatal(err)
	}
	const k = 42
	// nil old = only-if-absent.
	if ok, err := s.CompareAndSwap(k, nil, []byte("v1")); err != nil || !ok {
		t.Fatalf("CAS absent: %v/%v", ok, err)
	}
	if ok, err := s.CompareAndSwap(k, nil, []byte("v2")); err != nil || ok {
		t.Fatalf("CAS absent on present key: %v/%v", ok, err)
	}
	if ok, err := s.CompareAndSwap(k, []byte("nope"), []byte("v2")); err != nil || ok {
		t.Fatalf("CAS mismatch: %v/%v", ok, err)
	}
	if ok, err := s.CompareAndSwap(k, []byte("v1"), []byte("v2")); err != nil || !ok {
		t.Fatalf("CAS match: %v/%v", ok, err)
	}
	// nil new = delete on match.
	if ok, err := s.CompareAndSwap(k, []byte("v2"), nil); err != nil || !ok {
		t.Fatalf("CAS delete: %v/%v", ok, err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("CAS delete left the key")
	}
	// A one-key Txn observes and replaces atomically; declining the write
	// is a committed no-op.
	if err := s.Txn([]uint64{k}, func(tx *Tx) error {
		if cur, ok := tx.Get(k); ok {
			t.Fatalf("read-modify-write saw %q on an absent key", cur)
		}
		tx.Put(k, []byte("u1"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Txn([]uint64{k}, func(tx *Tx) error {
		if cur, ok := tx.Get(k); !ok || string(cur) != "u1" {
			t.Fatalf("read-modify-write saw %q/%v", cur, ok)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get(k); string(v) != "u1" {
		t.Fatalf("declined read-modify-write changed the value to %q", v)
	}
}

// TestTxnAtomicityStorm is the race certification: concurrent transfers
// between accounts spread across shards conserve the total balance, and
// concurrent CAS and one-key Txn contenders never lose an increment. Run under
// -race in CI.
func TestTxnAtomicityStorm(t *testing.T) {
	iters := 2000
	if testing.Short() {
		iters = 300
	}
	for _, durable := range []bool{false, true} {
		t.Run(map[bool]string{false: "volatile", true: "durable"}[durable], func(t *testing.T) {
			var s *Sharded
			var err error
			dir := t.TempDir()
			if durable {
				s = openTestKV(t, dir, 8, SyncNone)
			} else if s, err = NewSharded(8, mkBravo); err != nil {
				t.Fatal(err)
			}
			const accounts = 32
			const initial = uint64(1000)
			for k := uint64(0); k < accounts; k++ {
				s.Put(k, EncodeValue(initial))
			}
			balance := func(v []byte) uint64 { return binary.LittleEndian.Uint64(v) }

			var wg sync.WaitGroup
			const workers = 8
			var casWins atomic.Uint64
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := xrand.NewXorShift64(uint64(w)*0xDEADBEEF + 1)
					for i := 0; i < iters; i++ {
						switch rng.Intn(4) {
						case 0: // contended CAS increment on one hot key
							for {
								cur, _ := s.Get(0)
								next := EncodeValue(balance(cur) + 1)
								ok, err := s.CompareAndSwap(0, cur, next)
								if err != nil {
									t.Errorf("CAS: %v", err)
									return
								}
								if ok {
									casWins.Add(1)
									break
								}
							}
						case 1: // contended one-key Txn increment on another hot key
							if err := s.Txn([]uint64{1}, func(tx *Tx) error {
								cur, _ := tx.Get(1)
								tx.Put(1, EncodeValue(balance(cur)+1))
								return nil
							}); err != nil {
								t.Errorf("Txn increment: %v", err)
								return
							}
						default: // transfer between two random accounts
							a := 2 + rng.Next()%(accounts-2)
							b := 2 + rng.Next()%(accounts-2)
							if a == b {
								continue
							}
							amt := 1 + rng.Next()%10
							if err := s.Txn([]uint64{a, b}, func(tx *Tx) error {
								av, _ := tx.Get(a)
								bv, _ := tx.Get(b)
								if balance(av) < amt {
									return nil // committed read-only txn
								}
								tx.Put(a, EncodeValue(balance(av)-amt))
								tx.Put(b, EncodeValue(balance(bv)+amt))
								return nil
							}); err != nil {
								t.Errorf("Txn: %v", err)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()

			check := func(s *Sharded, label string) {
				t.Helper()
				sum := uint64(0)
				for k := uint64(2); k < accounts; k++ {
					v, ok := s.Get(k)
					if !ok {
						t.Fatalf("%s: account %d vanished", label, k)
					}
					sum += balance(v)
				}
				if want := initial * (accounts - 2); sum != want {
					t.Fatalf("%s: transfers did not conserve balance: %d, want %d", label, sum, want)
				}
				v0, _ := s.Get(0)
				if got := balance(v0); got != initial+casWins.Load() {
					t.Fatalf("%s: CAS counter %d, want %d wins over %d", label, got, casWins.Load(), initial)
				}
			}
			check(s, "live")
			if durable {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				r := openTestKV(t, dir, 8, SyncNone)
				defer r.Close()
				check(r, "recovered")
			}
		})
	}
}

// lastFrameOffset walks a WAL file's frames and returns the byte offset
// where its final complete frame begins.
func lastFrameOffset(t *testing.T, path string) int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off, last := 0, -1
	for {
		_, n, status := frame.Split(data[off:])
		if status != frame.OK {
			break
		}
		last = off
		off += n
	}
	if last < 0 {
		t.Fatalf("%s holds no complete frame", path)
	}
	return int64(last)
}

// TestTxnTornCommitRollForward mutilates a multi-shard commit the way a
// crash between participant appends would, and demands recovery restore
// atomicity from the surviving witness copy — in either direction, and
// stably across a second reopen.
func TestTxnTornCommitRollForward(t *testing.T) {
	for _, tearFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("tearFirst=%v", tearFirst), func(t *testing.T) {
			dir := t.TempDir()
			s := openTestKV(t, dir, 4, SyncNone)
			a, b := twoShardKeys(t, s)
			s.Put(a, []byte("a0"))
			s.Put(b, []byte("b0"))
			if err := s.Txn([]uint64{a, b}, func(tx *Tx) error {
				tx.Put(a, []byte("a1"))
				tx.Delete(b)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			lsnA, lsnB := s.ShardLSN(s.ShardOf(a)), s.ShardLSN(s.ShardOf(b))
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Tear one participant's copy of the commit off its log.
			torn := s.ShardOf(b)
			if tearFirst {
				torn = s.ShardOf(a)
			}
			walPath := s.walPath(torn)
			if err := os.Truncate(walPath, lastFrameOffset(t, walPath)); err != nil {
				t.Fatal(err)
			}

			for round := 0; round < 2; round++ {
				r := openTestKV(t, dir, 4, SyncNone)
				requireState(t, r, map[uint64][]byte{a: []byte("a1")}, fmt.Sprintf("round %d, rolled forward", round))
				// The repair continued each shard's LSN sequence.
				if got := r.ShardLSN(s.ShardOf(a)); got != lsnA {
					t.Fatalf("round %d: shard(a) LSN %d, want %d", round, got, lsnA)
				}
				if got := r.ShardLSN(s.ShardOf(b)); got != lsnB {
					t.Fatalf("round %d: shard(b) LSN %d, want %d", round, got, lsnB)
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestTxnTornCommitBothLost is the other atomicity direction: when every
// participant's copy is torn away, the transaction disappears wholesale —
// no participant keeps half of it.
func TestTxnTornCommitBothLost(t *testing.T) {
	dir := t.TempDir()
	s := openTestKV(t, dir, 4, SyncNone)
	a, b := twoShardKeys(t, s)
	s.Put(a, []byte("a0"))
	s.Put(b, []byte("b0"))
	if err := s.Txn([]uint64{a, b}, func(tx *Tx) error {
		tx.Put(a, []byte("a1"))
		tx.Put(b, []byte("b1"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{a, b} {
		p := s.walPath(s.ShardOf(k))
		if err := os.Truncate(p, lastFrameOffset(t, p)); err != nil {
			t.Fatal(err)
		}
	}
	r := openTestKV(t, dir, 4, SyncNone)
	defer r.Close()
	requireState(t, r, map[uint64][]byte{a: []byte("a0"), b: []byte("b0")}, "both copies torn")
}

// drainRepl streams every shard of src into dst until caught up, returning
// each shard's last applied LSN.
func drainRepl(t *testing.T, src, dst *Sharded, curs []ReplCursor) []uint64 {
	t.Helper()
	lsns := make([]uint64, src.NumShards())
	for shard := 0; shard < src.NumShards(); shard++ {
		for {
			chunk, err := src.ReplRead(shard, &curs[shard], testReplChunk)
			if err != nil {
				t.Fatalf("ReplRead shard %d: %v", shard, err)
			}
			if len(chunk) == 0 {
				break
			}
			for len(chunk) > 0 {
				rec, n := nextFrame(t, chunk)
				if err := dst.ApplyReplRecord(shard, rec); err != nil {
					t.Fatalf("ApplyReplRecord shard %d: %v", shard, err)
				}
				chunk = chunk[n:]
			}
		}
		lsns[shard] = curs[shard].Next - 1
	}
	return lsns
}

// TestTxnReplFollowerFailover certifies that transactional writes flow
// through replication and survive promotion: a follower tails a primary
// running transactions, the primary "fails", the follower is promoted into
// a fresh durable engine with the LSN fence, more transactions run against
// the promoted primary, and the final recovered state matches a sequential
// model that saw both phases.
func TestTxnReplFollowerFailover(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 120
	}
	const shards = 4
	primDir := t.TempDir()
	prim := openTestKV(t, primDir, shards, SyncNone)
	follower, err := NewSharded(shards, mkBravo)
	if err != nil {
		t.Fatal(err)
	}
	// One model sees both phases: the driver moves from the primary to the
	// promoted engine with it.
	d := newDriver(t, prim, 0xFA110, 0, 128, true, writeOps)
	d.run(iters)
	curs := make([]ReplCursor, shards)
	lsns := drainRepl(t, prim, follower, curs)
	requireState(t, follower, d.m, "follower after phase 1")

	// Primary fails; promote the follower the way cluster failover does:
	// seed a fresh directory with its state (values and TTLs) as snapshots
	// stamped with the applied LSNs — the fence failover promotion cuts —
	// and open it: each shard's log continues from its snapshot's stamp.
	if err := prim.Close(); err != nil {
		t.Fatal(err)
	}
	promDir := t.TempDir()
	if err := SeedSnapshotDir(promDir, follower, lsns); err != nil {
		t.Fatal(err)
	}
	prom, err := OpenSharded(promDir, shards, mkBravo, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range lsns {
		if got := prom.ShardLSN(i); got != want {
			t.Fatalf("promoted shard %d resumes at LSN %d, follower had applied %d", i, got, want)
		}
	}
	requireState(t, prom, d.m, "promoted before phase 2")

	d.s = prom
	d.run(iters)
	requireState(t, prom, d.m, "promoted after phase 2")
	if err := prom.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTestKV(t, promDir, shards, SyncNone)
	defer r.Close()
	requireState(t, r, d.m, "promoted recovered")
}

// TestTxnWitnessRecordRoundTrip pins the v4 encoding: what encodeRecord
// writes, walDecodePayload returns, byte-exact fields included.
func TestTxnWitnessRecordRoundTrip(t *testing.T) {
	parts := []walPart{{shard: 1, lsn: 10}, {shard: 5, lsn: 3}, {shard: 6, lsn: 77}}
	payload := encodeRecord(nil, 10, parts, []Entry{
		{Op: OpPut, Key: 100, Value: []byte("alpha")},
		{Op: OpDelete, Key: 200},
		{Op: OpPut, Key: 300, Value: []byte("beta")},
	})[walHeaderSize:]
	rec, ok := walDecodePayload(payload)
	if !ok {
		t.Fatal("round trip rejected")
	}
	if rec.version != walVersionTxn || rec.lsn != 10 {
		t.Fatalf("decoded version %d lsn %d", rec.version, rec.lsn)
	}
	if len(rec.parts) != len(parts) {
		t.Fatalf("decoded %d participants", len(rec.parts))
	}
	for i, p := range parts {
		if rec.parts[i] != p {
			t.Fatalf("participant %d = %+v, want %+v", i, rec.parts[i], p)
		}
	}
	if len(rec.entries) != 3 || rec.entries[0].Op != OpPut ||
		!bytes.Equal(rec.entries[0].Value, []byte("alpha")) ||
		rec.entries[1].Op != OpDelete || rec.entries[1].Key != 200 {
		t.Fatalf("decoded entries %+v", rec.entries)
	}
	if rec.txnKey() != (walPart{shard: 1, lsn: 10}) {
		t.Fatalf("txnKey = %+v", rec.txnKey())
	}
	// Non-canonical participant lists must be rejected wholesale.
	for _, bad := range [][]walPart{
		{{shard: 1, lsn: 10}},                     // single participant
		{{shard: 5, lsn: 10}, {shard: 1, lsn: 3}}, // descending shards
		{{shard: 1, lsn: 10}, {shard: 1, lsn: 3}}, // duplicate shard
		{{shard: 1, lsn: 0}, {shard: 5, lsn: 3}},  // zero LSN
	} {
		if _, ok := walDecodePayload(encodeRecord(nil, 10, bad, nil)[walHeaderSize:]); ok {
			t.Fatalf("non-canonical participant list %+v decoded", bad)
		}
	}
}
