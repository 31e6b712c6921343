package repl

// Transaction witness records on the wire. The stream ships WAL records
// verbatim, so a committed multi-shard txn arrives at each participant
// shard's puller as a v4 witness frame. A follower that cannot decode or
// apply those frames does not fail loudly — it drops the stream, retries,
// and loops forever one LSN short — so the regression signature asserted
// here is "caught up with zero reconnects", not just convergence.

import (
	"fmt"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/kvs"
)

func TestE2ETxnWitnessReplication(t *testing.T) {
	dir := t.TempDir()
	engine, url, _ := startPrimary(t, dir, 8, mkBravo)

	// Baseline singles so witness frames land mid-sequence on some shards,
	// at LSN 1 on others.
	for k := uint64(0); k < 32; k++ {
		engine.Put(k, kvs.EncodeValue(k))
	}

	oracle := newLSNOracle(t)
	f := openFollower(t, url, func(c *Config) { c.OnApply = oracle.hook })
	if err := f.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Live tail: cross-shard commits stream to an already-attached
	// follower. Each txn writes some keys and deletes its last one, so
	// the witness carries both entry kinds.
	for i, keys := range [][]uint64{{100, 101, 102}, {7, 200}, {3, 300, 301, 302}} {
		err := engine.Txn(keys, func(tx *kvs.Tx) error {
			for _, k := range keys[:len(keys)-1] {
				tx.Put(k, []byte(fmt.Sprintf("txn%d-%d", i, k)))
			}
			tx.Delete(keys[len(keys)-1])
			return nil
		})
		if err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	// An aborted txn must ship nothing.
	wantAbort := fmt.Errorf("no")
	if err := engine.Txn([]uint64{1, 2}, func(tx *kvs.Tx) error {
		tx.Put(1, []byte("never"))
		return wantAbort
	}); err != wantAbort {
		t.Fatalf("aborting txn returned %v", err)
	}

	if err := f.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatalf("follower stuck on witness frames: %v", err)
	}
	requireConverged(t, engine, f.Engine(), "live tail through txns")
	if got := f.Stats().Reconnects; got != 0 {
		t.Fatalf("clean stream took %d reconnects: witness frames are dropping the stream", got)
	}

	// Catch-up: a fresh follower replays the whole log — witness frames
	// included — from LSN 1.
	f2 := openFollower(t, url, nil)
	if err := f2.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatalf("fresh follower stuck replaying witness frames: %v", err)
	}
	requireConverged(t, engine, f2.Engine(), "fresh bootstrap over txn history")
	if got := f2.Stats().Reconnects; got != 0 {
		t.Fatalf("bootstrap took %d reconnects", got)
	}
}
