package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/kvs"
)

func testConfig(t *testing.T, partitions, followers int) Config {
	t.Helper()
	return Config{
		Partitions:    partitions,
		Shards:        4,
		Followers:     followers,
		Dir:           t.TempDir(),
		Policy:        kvs.SyncNone,
		RetryInterval: 5 * time.Millisecond,
	}
}

func openCluster(t *testing.T, partitions, followers int) *Cluster {
	t.Helper()
	c, err := Open(testConfig(t, partitions, followers))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClusterPutGetRoundTrip(t *testing.T) {
	c := openCluster(t, 3, 1)
	const n = 500
	for k := uint64(0); k < n; k++ {
		if _, err := c.Put(k, []byte(fmt.Sprintf("v%d", k)), 0); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	for k := uint64(0); k < n; k++ {
		v, ok := c.Get(nil, k, nil)
		if !ok || string(v) != fmt.Sprintf("v%d", k) {
			t.Fatalf("Get(%d) = %q, %v", k, v, ok)
		}
	}
	// The keyspace actually spread: every partition owns something.
	st := c.Stats()
	for _, ps := range st.Members {
		var total uint64
		for _, l := range ps.LSNs {
			total += l
		}
		if total == 0 {
			t.Fatalf("partition %d received no writes out of %d keys", ps.Partition, n)
		}
	}
}

func TestClusterMultiOpsFanOut(t *testing.T) {
	c := openCluster(t, 4, 1)
	const n = 200
	keys := make([]uint64, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i * 7)
		vals[i] = []byte(fmt.Sprintf("batch-%d", i))
	}
	lsns, err := c.MultiPut(keys, vals, 0)
	if err != nil {
		t.Fatalf("MultiPut: %v", err)
	}
	if len(lsns) == 0 {
		t.Fatal("MultiPut returned no tokens on a durable cluster")
	}
	seen := map[uint32]bool{}
	for _, tok := range lsns {
		if tok.Epoch != 1 {
			t.Fatalf("token epoch %d before any failover", tok.Epoch)
		}
		if seen[tok.Shard] {
			t.Fatalf("duplicate global shard %d in tokens", tok.Shard)
		}
		seen[tok.Shard] = true
		if _, _, ok := c.SplitGlobalShard(tok.Shard); !ok {
			t.Fatalf("token shard %d out of range", tok.Shard)
		}
	}
	got := c.MultiGet(nil, keys)
	for i, v := range got {
		if !bytes.Equal(v, vals[i]) {
			t.Fatalf("MultiGet[%d] = %q, want %q", i, v, vals[i])
		}
	}
	// Tokens admit the read (all current-epoch).
	for _, tok := range lsns {
		if terr := c.CheckToken(tok.Epoch, tok.LSN, keys); terr != nil {
			t.Fatalf("CheckToken: %v", terr)
		}
	}
	removed, dLsns, err := c.MultiDelete(keys[:50])
	if err != nil {
		t.Fatalf("MultiDelete: %v", err)
	}
	if removed != 50 {
		t.Fatalf("MultiDelete removed %d, want 50", removed)
	}
	if len(dLsns) == 0 {
		t.Fatal("MultiDelete returned no tokens")
	}
	for i := 0; i < 50; i++ {
		if _, ok := c.Get(nil, keys[i], nil); ok {
			t.Fatalf("key %d survived MultiDelete", keys[i])
		}
	}
}

func TestClusterFailoverPromotesAndFences(t *testing.T) {
	c := openCluster(t, 2, 2)
	const n = 300
	toks := make(map[uint64]ShardLSN, n)
	for k := uint64(0); k < n; k++ {
		tok, err := c.Put(k, []byte(fmt.Sprintf("v%d", k)), 0)
		if err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
		toks[k] = tok
	}
	if err := c.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatalf("WaitCaughtUp: %v", err)
	}

	old := c.Member(0)
	epoch, err := c.Failover(0)
	if err != nil {
		t.Fatalf("Failover: %v", err)
	}
	if epoch != 2 || c.Epoch(0) != 2 {
		t.Fatalf("epoch after failover: returned %d, partition at %d", epoch, c.Epoch(0))
	}

	// The fenced corpse rejects everything, wherever the write enters.
	if _, err := old.put(1, []byte("zombie"), 0); err != ErrFenced {
		t.Fatalf("corpse Put: %v, want ErrFenced", err)
	}
	if _, _, err := old.delete(1); err != ErrFenced {
		t.Fatalf("corpse Delete: %v, want ErrFenced", err)
	}

	// Caught-up failover loses nothing: every key reads back, every old
	// token is honored (it survived the cut).
	for k := uint64(0); k < n; k++ {
		v, ok := c.Get(nil, k, nil)
		if !ok || string(v) != fmt.Sprintf("v%d", k) {
			t.Fatalf("Get(%d) after failover = %q, %v", k, v, ok)
		}
		tok := toks[k]
		if terr := c.CheckToken(tok.Epoch, tok.LSN, []uint64{k}); terr != nil {
			t.Fatalf("old token for key %d rejected: %v", k, terr)
		}
	}

	// The promoted primary continues the LSN sequence from the cut — its
	// seeded snapshots' stamps — and serves writes at the new epoch.
	cut := c.Cut(0, 2)
	if len(cut) != c.ShardsPerPartition() {
		t.Fatalf("Cut(0, 2) = %v, want one LSN per shard", cut)
	}
	for i, want := range cut {
		if got := c.Member(0).Engine().ShardLSN(i); got != want || want == 0 {
			t.Fatalf("promoted shard %d resumes at LSN %d, the cut is %d", i, got, want)
		}
	}
	tok, err := c.Put(7, []byte("after"), 0)
	if err != nil {
		t.Fatalf("Put after failover: %v", err)
	}
	if c.Partition(7) == 0 && tok.Epoch != 2 {
		t.Fatalf("post-failover token epoch %d, want 2", tok.Epoch)
	}
}

// TestClusterEmptyTxnDuringFailover: a transaction with no keys is refused
// with the engine's typed error without reading any partition's member, so
// it cannot race a Failover swapping that member (run under -race).
func TestClusterEmptyTxnDuringFailover(t *testing.T) {
	c := openCluster(t, 1, 1)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if _, err := c.Txn(nil, nil); !errors.Is(err, kvs.ErrTxnNoKeys) {
				done <- err
				return
			}
		}
	}()
	for i := 0; i < 2; i++ {
		if _, err := c.Failover(0); err != nil {
			t.Fatalf("Failover %d: %v", i, err)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("Txn(nil) = %v, want ErrTxnNoKeys", err)
	}
}

// TestFenceWaitsForInFlightCommit pins the fence's barrier: a transaction
// in flight holds Fence off until it commits, and the write after Fence is
// refused.
func TestFenceWaitsForInFlightCommit(t *testing.T) {
	c := openCluster(t, 1, 1)
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free() // a failing run must not leave the body holding the partition
	txnErr := make(chan error, 1)
	go func() {
		_, err := c.Txn([]uint64{1}, func(tx *kvs.Tx) error {
			close(started)
			<-release
			tx.Put(1, []byte("in flight"))
			return nil
		})
		txnErr <- err
	}()
	<-started
	m := c.Member(0)
	fenced := make(chan struct{})
	go func() {
		m.Fence()
		close(fenced)
	}()
	select {
	case <-fenced:
		t.Fatal("Fence returned while a transaction was committing")
	case <-time.After(50 * time.Millisecond):
	}
	free()
	if err := <-txnErr; err != nil {
		t.Fatalf("in-flight Txn: %v", err)
	}
	<-fenced
	if _, err := c.Put(2, []byte("late"), 0); !errors.Is(err, ErrFenced) {
		t.Fatalf("Put after Fence: %v, want ErrFenced", err)
	}
	if v, ok := c.Get(nil, 1, nil); !ok || string(v) != "in flight" {
		t.Fatalf("Get(1) = %q, %v; want the transaction's value", v, ok)
	}
}

func TestClusterLostTokenConflicts(t *testing.T) {
	c := openCluster(t, 1, 1)
	// Replicate one write, then pause the follower and write more: the
	// extra writes are acknowledged but never replicated, so the failover
	// cut loses them.
	tok0, err := c.Put(1, []byte("kept"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Followers(0)[0].Stop()
	var lost ShardLSN
	for i := 0; i < 10; i++ {
		// Same key: same shard, strictly increasing LSNs past the cut.
		if lost, err = c.Put(1, []byte("lost"), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Failover(0); err != nil {
		t.Fatalf("Failover: %v", err)
	}
	if terr := c.CheckToken(tok0.Epoch, tok0.LSN, []uint64{1}); terr != nil {
		t.Fatalf("replicated token rejected: %v", terr)
	}
	terr := c.CheckToken(lost.Epoch, lost.LSN, []uint64{1})
	if terr == nil || !terr.Conflict {
		t.Fatalf("lost token: got %v, want conflict", terr)
	}
	// The value rolled back to the survived prefix.
	if v, ok := c.Get(nil, 1, nil); !ok || string(v) != "kept" {
		t.Fatalf("Get after lossy failover = %q, %v; want %q", v, ok, "kept")
	}
	// A token from a future epoch is impossible here: not a conflict, a
	// bad request.
	terr = c.CheckToken(99, 1, []uint64{1})
	if terr == nil || terr.Conflict {
		t.Fatalf("future-epoch token: got %v, want non-conflict error", terr)
	}
}

// TestClusterMaintenanceSurface covers the operational methods the
// failover tests don't route through: topology accessors, TTL reaping,
// checkpoints, single-key Delete, and data removal after close.
func TestClusterMaintenanceSurface(t *testing.T) {
	c := openCluster(t, 2, 1)
	if c.NumPartitions() != 2 || c.ShardsPerPartition() != 4 {
		t.Fatalf("topology = %d×%d, want 2×4", c.NumPartitions(), c.ShardsPerPartition())
	}
	if r := c.Router(); r.NumPartitions() != 2 || len(r.IDs()) != 2 {
		t.Fatalf("router reports %d partitions, %d ids", r.NumPartitions(), len(r.IDs()))
	}
	if c.Epoch(0) != 1 || c.Member(0).Epoch() != 1 {
		t.Fatalf("fresh cluster epochs = %d/%d, want 1/1", c.Epoch(0), c.Member(0).Epoch())
	}

	// Expired TTL residue is reapable across every partition.
	for k := uint64(100); k < 120; k++ {
		if _, err := c.Put(k, []byte("brief"), time.Nanosecond); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(time.Millisecond)
	if reaped := c.Reap(1000); reaped != 20 {
		t.Fatalf("Reap removed %d, want 20", reaped)
	}

	if err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	if _, err := c.Put(3, []byte("doomed"), 0); err != nil {
		t.Fatal(err)
	}
	ok, tok, err := c.Delete(3)
	if err != nil || !ok || tok.LSN == 0 || tok.Epoch != 1 {
		t.Fatalf("Delete(3) = %v, %+v, %v", ok, tok, err)
	}
	if ok, _, err = c.Delete(3); err != nil || ok {
		t.Fatalf("second Delete(3) = %v, %v; want a miss", ok, err)
	}

	// A token error renders a usable message.
	if terr := c.CheckToken(99, 1, []uint64{1}); terr == nil || terr.Error() == "" {
		t.Fatalf("future-epoch CheckToken = %v, want a described error", terr)
	}
}

func TestClusterRemoveDataAfterClose(t *testing.T) {
	cfg := testConfig(t, 1, 1)
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(1, []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.RemoveData(); err != nil {
		t.Fatalf("RemoveData: %v", err)
	}
	if _, err := os.Stat(cfg.Dir); !os.IsNotExist(err) {
		t.Fatalf("data dir survived RemoveData: %v", err)
	}
}

func TestClusterTTLSurvivesFailover(t *testing.T) {
	c := openCluster(t, 1, 1)
	if _, err := c.Put(1, []byte("expiring"), time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(2, []byte("expired"), time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Failover(0); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Get(nil, 1, nil); !ok || string(v) != "expiring" {
		t.Fatalf("TTL key lost in failover: %q, %v", v, ok)
	}
	if _, ok := c.Get(nil, 2, nil); ok {
		t.Fatal("expired key resurrected by failover")
	}
}

// partitionKeys scans the keyspace for n keys owned by partition pi.
func partitionKeys(c *Cluster, pi, n int) []uint64 {
	keys := make([]uint64, 0, n)
	for k := uint64(0); len(keys) < n; k++ {
		if c.Partition(k) == pi {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestClusterCasAndTxn drives the transactional surface through the
// cluster: single-partition batches commit atomically with epoch-stamped
// tokens, cross-partition batches answer the typed rejection, and after a
// failover the fenced corpse refuses transactions while the promoted
// primary carries the committed state and serves new ones at the bumped
// epoch.
func TestClusterCasAndTxn(t *testing.T) {
	c := openCluster(t, 2, 1)

	// CAS through the router: install, stale attempt, delete-on-match.
	if swapped, tok, err := c.Cas(9, nil, []byte("v1")); err != nil || !swapped || tok.Epoch != 1 {
		t.Fatalf("Cas install = %v/%+v/%v", swapped, tok, err)
	}
	if swapped, _, err := c.Cas(9, []byte("stale"), []byte("v2")); err != nil || swapped {
		t.Fatalf("stale Cas = %v/%v, want false", swapped, err)
	}

	// A single-partition transaction commits atomically; its tokens carry
	// one triple per declared shard at the partition's epoch.
	keys := partitionKeys(c, 0, 3)
	lsns, err := c.Txn(keys, func(tx *kvs.Tx) error {
		for i, k := range keys {
			tx.Put(k, []byte{byte(i)})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Txn: %v", err)
	}
	if len(lsns) == 0 {
		t.Fatal("committed Txn returned no tokens")
	}
	for _, l := range lsns {
		if l.Epoch != 1 {
			t.Fatalf("Txn token epoch = %d, want 1", l.Epoch)
		}
	}
	for i, k := range keys {
		if v, ok := c.Get(nil, k, nil); !ok || !bytes.Equal(v, []byte{byte(i)}) {
			t.Fatalf("Get(%d) after Txn = %q, %v", k, v, ok)
		}
	}

	// Keys spanning partitions are rejected with the typed error before
	// any lock is taken.
	cross := []uint64{partitionKeys(c, 0, 1)[0], partitionKeys(c, 1, 1)[0]}
	if _, err := c.Txn(cross, func(*kvs.Tx) error { return nil }); err == nil || !errors.Is(err, ErrCrossPartitionTxn) {
		t.Fatalf("cross-partition Txn: %v, want ErrCrossPartitionTxn", err)
	}

	// Failover: the corpse fences its transactional surface too, and the
	// promoted primary carries the committed batch.
	if err := c.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatalf("WaitCaughtUp: %v", err)
	}
	old := c.Member(0)
	if _, err := c.Failover(0); err != nil {
		t.Fatalf("Failover: %v", err)
	}
	if _, err := old.txn(keys[:1], func(*kvs.Tx) error { return nil }); err != ErrFenced {
		t.Fatalf("corpse Txn: %v, want ErrFenced", err)
	}
	if _, _, err := old.cas(keys[0], nil, []byte("x")); err != ErrFenced {
		t.Fatalf("corpse Cas: %v, want ErrFenced", err)
	}
	for i, k := range keys {
		if v, ok := c.Get(nil, k, nil); !ok || !bytes.Equal(v, []byte{byte(i)}) {
			t.Fatalf("Get(%d) after failover = %q, %v", k, v, ok)
		}
	}
	lsns, err = c.Txn(keys[:2], func(tx *kvs.Tx) error {
		tx.Put(keys[0], []byte("post"))
		tx.Delete(keys[1])
		return nil
	})
	if err != nil {
		t.Fatalf("Txn after failover: %v", err)
	}
	for _, l := range lsns {
		if l.Epoch != 2 {
			t.Fatalf("post-failover Txn token epoch = %d, want 2", l.Epoch)
		}
	}
	if v, ok := c.Get(nil, keys[0], nil); !ok || string(v) != "post" {
		t.Fatalf("Get after post-failover Txn = %q, %v", v, ok)
	}
	if _, ok := c.Get(nil, keys[1], nil); ok {
		t.Fatal("post-failover Txn delete did not apply")
	}
}
