package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
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

// readToken reads keys through c.Read with the token (epoch, lsn), one GET
// or an MGET, and returns the token error it answered, if any; any other
// error fails the test.
func readToken(t *testing.T, c *Cluster, epoch, lsn uint64, keys ...uint64) *TokenError {
	t.Helper()
	req := wire.Request{Op: wire.OpMGet, Keys: keys, Epoch: epoch, MinLSN: lsn}
	if len(keys) == 1 {
		req = wire.Request{Op: wire.OpGet, Key: keys[0], Epoch: epoch, MinLSN: lsn}
	}
	err := c.Read(nil, &req, new(wire.Response))
	terr, ok := err.(*TokenError)
	if err != nil && !ok {
		t.Fatalf("Read(%v) with token (epoch %d, lsn %d): %v", req.Op, epoch, lsn, err)
	}
	return terr
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

// Put and Get allocate nothing: Put's token lands in a buffer on its stack
// and Get's value in the caller's.
func TestClusterPutGetAllocs(t *testing.T) {
	c := openCluster(t, 2, 0)
	val, buf := make([]byte, 128), make([]byte, 0, 128)
	put := func() {
		if _, err := c.Put(7, val, 0); err != nil {
			t.Fatal(err)
		}
	}
	put()
	if n := testing.AllocsPerRun(1000, put); n != 0 {
		t.Errorf("Put allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { buf, _ = c.Get(nil, 7, buf[:0]) }); n != 0 || len(buf) != len(val) {
		t.Errorf("Get allocates %.1f times per call and read %d bytes, want 0 and %d", n, len(buf), len(val))
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
	var got wire.Response
	if err := c.Read(nil, &wire.Request{Op: wire.OpMGet, Keys: keys}, &got); err != nil {
		t.Fatalf("MultiGet: %v", err)
	}
	for i, v := range got.Values {
		if !bytes.Equal(v, vals[i]) {
			t.Fatalf("MultiGet[%d] = %q, want %q", i, v, vals[i])
		}
	}
	// Tokens admit the read (all current-epoch).
	for _, tok := range lsns {
		if terr := readToken(t, c, tok.Epoch, tok.LSN, keys...); terr != nil {
			t.Fatalf("MGET with token: %v", terr)
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
	if epoch != 2 || c.Member(0).Epoch() != 2 {
		t.Fatalf("epoch after failover: returned %d, partition at %d", epoch, c.Member(0).Epoch())
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
		if terr := readToken(t, c, tok.Epoch, tok.LSN, k); terr != nil {
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
	if terr := readToken(t, c, tok0.Epoch, tok0.LSN, 1); terr != nil {
		t.Fatalf("replicated token rejected: %v", terr)
	}
	terr := readToken(t, c, lost.Epoch, lost.LSN, 1)
	if terr == nil || !terr.Conflict {
		t.Fatalf("lost token: got %v, want conflict", terr)
	}
	// The value rolled back to the survived prefix.
	if v, ok := c.Get(nil, 1, nil); !ok || string(v) != "kept" {
		t.Fatalf("Get after lossy failover = %q, %v; want %q", v, ok, "kept")
	}
	// A token from a future epoch is impossible here: not a conflict, a
	// bad request.
	terr = readToken(t, c, 99, 1, 1)
	if terr == nil || terr.Conflict {
		t.Fatalf("future-epoch token: got %v, want non-conflict error", terr)
	}
}

// TestTokenReadsRaceLossyFailovers races token-bearing GETs, and MGETs
// spanning both partitions, against lossy failovers of both at once. The
// token names each key's latest write, which the failover loses, so every
// answer is that write's value or a conflict: a read that passed its check
// before a failover and read after it would answer the rolled-back value.
// One shard per partition and the same writes on each keep the token's LSN
// past both cuts. A reader stops at its first conflict, so the failovers do
// not compete with readers that can no longer race them.
func TestTokenReadsRaceLossyFailovers(t *testing.T) {
	cfg := testConfig(t, 2, 1)
	cfg.Shards = 1
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var keys []uint64
	for k := uint64(0); len(keys) < 2; k++ {
		if c.Partition(k) == len(keys) {
			keys = append(keys, k)
		}
	}
	for round := 0; round < 3; round++ {
		lost := fmt.Sprintf("lost-%d", round)
		for _, k := range keys {
			if _, err := c.Put(k, []byte("kept"), 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.WaitCaughtUp(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		var tok ShardLSN
		for pi, k := range keys {
			c.Followers(pi)[0].Stop()
			if tok, err = c.Put(k, []byte(lost), 0); err != nil {
				t.Fatal(err)
			}
		}
		var started, done sync.WaitGroup
		var stop atomic.Bool // a failover that failed leaves readers no conflict
		for r := 0; r < 6; r++ {
			started.Add(1)
			done.Add(1)
			go func(r int) {
				defer done.Done()
				for i := r; i == r || !stop.Load(); i++ {
					req := wire.Request{Op: wire.OpMGet, Keys: keys, Epoch: tok.Epoch, MinLSN: tok.LSN}
					if i%3 < 2 {
						req = wire.Request{Op: wire.OpGet, Key: keys[i%3], Epoch: tok.Epoch, MinLSN: tok.LSN}
					}
					var resp wire.Response
					err := c.Read(nil, &req, &resp)
					vals := resp.Values
					if req.Op == wire.OpGet {
						vals = [][]byte{resp.Value}
					}
					for _, v := range vals {
						if err == nil && string(v) != lost {
							t.Errorf("round %d: %v with a lost token answered %q, want %q or a conflict", round, req.Op, v, lost)
						}
					}
					if i == r {
						started.Done()
					}
					if terr, ok := err.(*TokenError); err != nil {
						if !ok || !terr.Conflict {
							t.Errorf("round %d: %v with a lost token: %v, want a conflict", round, req.Op, err)
						}
						return
					}
				}
			}(r)
		}
		started.Wait()
		errs := make(chan error, len(keys))
		for pi := range keys {
			go func(pi int) {
				_, err := c.Failover(pi)
				errs <- err
			}(pi)
		}
		for range keys {
			if err := <-errs; err != nil {
				t.Errorf("round %d: Failover: %v", round, err)
			}
		}
		stop.Store(true)
		done.Wait()
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
	if c.Member(0).Epoch() != 1 || c.Member(1).Epoch() != 1 {
		t.Fatalf("fresh cluster epochs = %d/%d, want 1/1", c.Member(0).Epoch(), c.Member(1).Epoch())
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
	if terr := readToken(t, c, 99, 1, 1); terr == nil || terr.Error() == "" {
		t.Fatalf("future-epoch token = %v, want a described error", terr)
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
