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
	"github.com/bravolock/bravo/internal/wire"
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

// write runs req through c.Write and returns the response it filled.
func write(c *Cluster, req wire.Request) (wire.Response, error) {
	var resp wire.Response
	err := c.Write(&req, &resp)
	return resp, err
}

// everyWrite is one request of each write kind, all on key k (and k+1).
func everyWrite(k uint64) []wire.Request {
	return []wire.Request{
		{Op: wire.OpPut, Key: k, Value: []byte("stale")},
		{Op: wire.OpDelete, Key: k},
		{Op: wire.OpMPut, Keys: []uint64{k, k + 1}, Values: [][]byte{[]byte("a"), []byte("b")}},
		{Op: wire.OpMDelete, Keys: []uint64{k}},
		{Op: wire.OpCas, Key: k, New: []byte("x")},
		{Op: wire.OpTxn, TxnOps: []wire.TxnOp{{Key: k, Value: []byte("x")}}},
	}
}

// assertFenced drives every write kind into the corpse m and wants each
// refused at the fence.
func assertFenced(t *testing.T, m *Member, k uint64) {
	t.Helper()
	for _, req := range everyWrite(k) {
		if err := m.write(&req, new(wire.Response)); err != ErrFenced {
			t.Errorf("fenced %v: err = %v, want ErrFenced", req.Op, err)
		}
	}
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
	resp, err := write(c, wire.Request{Op: wire.OpMPut, Keys: keys, Values: vals})
	if err != nil || resp.Applied != n {
		t.Fatalf("MultiPut applied %d of %d: %v", resp.Applied, n, err)
	}
	lsns := resp.LSNs
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
	resp, err = write(c, wire.Request{Op: wire.OpMDelete, Keys: keys[:50]})
	if err != nil {
		t.Fatalf("MultiDelete: %v", err)
	}
	if resp.Applied != 50 {
		t.Fatalf("MultiDelete removed %d, want 50", resp.Applied)
	}
	if len(resp.LSNs) == 0 {
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
	assertFenced(t, old, 1)

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
			if _, err := write(c, wire.Request{Op: wire.OpTxn}); !errors.Is(err, kvs.ErrTxnNoKeys) {
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
		t.Fatalf("empty TXN = %v, want ErrTxnNoKeys", err)
	}
}

// TestFenceWaitsForInFlightCommit pins the fence's barrier: a write in
// flight holds Fence off until it commits, and the write after Fence is
// refused. The write is held in flight by a transaction on the engine
// itself, which owns its shard's lock until released.
func TestFenceWaitsForInFlightCommit(t *testing.T) {
	c := openCluster(t, 1, 1)
	m, p := c.Member(0), c.parts[0]
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free() // a failing run must not leave the shard locked
	txnErr := make(chan error, 1)
	go func() {
		txnErr <- m.Engine().Txn([]uint64{1}, func(*kvs.Tx) error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started
	putErr := make(chan error, 1)
	go func() {
		_, err := c.Put(1, []byte("in flight"), 0)
		putErr <- err
	}()
	// The put holds the partition's read side, then waits on the shard.
	for p.mu.TryLock() {
		p.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	fenced := make(chan struct{})
	go func() {
		m.Fence()
		close(fenced)
	}()
	select {
	case <-fenced:
		t.Fatal("Fence returned while a write was committing")
	case <-time.After(50 * time.Millisecond):
	}
	free()
	if err := <-txnErr; err != nil {
		t.Fatalf("engine Txn holding the shard: %v", err)
	}
	if err := <-putErr; err != nil {
		t.Fatalf("in-flight Put: %v", err)
	}
	<-fenced
	if _, err := c.Put(2, []byte("late"), 0); !errors.Is(err, ErrFenced) {
		t.Fatalf("Put after Fence: %v, want ErrFenced", err)
	}
	if v, ok := c.Get(nil, 1, nil); !ok || string(v) != "in flight" {
		t.Fatalf("Get(1) = %q, %v; want the in-flight write's value", v, ok)
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
	resp, err := write(c, wire.Request{Op: wire.OpDelete, Key: 3})
	if err != nil || resp.Status != wire.StatusOK || len(resp.LSNs) != 1 || resp.LSNs[0].LSN == 0 || resp.LSNs[0].Epoch != 1 {
		t.Fatalf("Delete(3) = %v, %+v, %v", resp.Status, resp.LSNs, err)
	}
	if resp, err = write(c, wire.Request{Op: wire.OpDelete, Key: 3}); err != nil || resp.Status != wire.StatusNotFound || len(resp.LSNs) != 1 {
		t.Fatalf("second Delete(3) = %v, %+v, %v; want a miss, stamped", resp.Status, resp.LSNs, err)
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
	if resp, err := write(c, wire.Request{Op: wire.OpCas, Key: 9, New: []byte("v1")}); err != nil || !resp.Swapped || resp.LSNs[0].Epoch != 1 {
		t.Fatalf("Cas install = %v/%+v/%v", resp.Swapped, resp.LSNs, err)
	}
	if resp, err := write(c, wire.Request{Op: wire.OpCas, Key: 9, Old: []byte("stale"), New: []byte("v2")}); err != nil || resp.Swapped {
		t.Fatalf("stale Cas = %v/%v, want false", resp.Swapped, err)
	}

	// A single-partition transaction commits atomically; its tokens carry
	// one triple per declared shard at the partition's epoch.
	keys := partitionKeys(c, 0, 3)
	txn := wire.Request{Op: wire.OpTxn}
	for i, k := range keys {
		txn.TxnOps = append(txn.TxnOps, wire.TxnOp{Key: k, Value: []byte{byte(i)}})
	}
	resp, err := write(c, txn)
	if err != nil || !resp.Committed {
		t.Fatalf("Txn: committed %v, %v", resp.Committed, err)
	}
	if len(resp.LSNs) == 0 {
		t.Fatal("committed Txn returned no tokens")
	}
	for _, l := range resp.LSNs {
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
	if _, err := write(c, wire.Request{Op: wire.OpTxn, Conds: []wire.TxnCond{{Key: cross[0]}, {Key: cross[1]}}}); !errors.Is(err, ErrCrossPartitionTxn) {
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
	assertFenced(t, old, keys[0])
	for i, k := range keys {
		if v, ok := c.Get(nil, k, nil); !ok || !bytes.Equal(v, []byte{byte(i)}) {
			t.Fatalf("Get(%d) after failover = %q, %v", k, v, ok)
		}
	}
	resp, err = write(c, wire.Request{Op: wire.OpTxn, TxnOps: []wire.TxnOp{{Key: keys[0], Value: []byte("post")}, {Key: keys[1], Del: true}}})
	if err != nil || !resp.Committed {
		t.Fatalf("Txn after failover: committed %v, %v", resp.Committed, err)
	}
	for _, l := range resp.LSNs {
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
