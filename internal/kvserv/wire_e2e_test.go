package kvserv

// End-to-end wire-protocol jobs over real TCP: the binary front-end on a
// replicating primary/follower pair (commit-LSN tokens cross the wire and
// gate follower reads), graceful-shutdown draining of pipelined requests,
// and a many-connection smoke that the race detector watches.

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/repl"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/wire"
)

// addWireListener attaches a wire listener to an already-constructed server
// (either role), mirroring cmd/kvserv's -wire-addr startup.
func addWireListener(t *testing.T, srv *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWire(l)
	return l.Addr().String()
}

// TestWireE2EFollowerMinLSN drives the full read-your-writes loop in
// binary: write on the primary's wire port, carry the commit-LSN token to
// the follower's wire port, and read the value back gated on that token.
func TestWireE2EFollowerMinLSN(t *testing.T) {
	dir := t.TempDir()
	engine, err := kvs.OpenSharded(dir, 8, func() rwl.RWLock { return core.New(new(stdrw.Lock)) }, kvs.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { engine.Close() })
	// The HTTP listener carries the replication stream; the wire listener
	// carries the KV traffic under test.
	primaryURL := startServerWith(t, engine, Config{ReapInterval: -1})

	primarySrv := New(engine, Config{ReapInterval: -1})
	t.Cleanup(func() { primarySrv.Close() })
	primaryWire := addWireListener(t, primarySrv)

	f, err := repl.Open(repl.Config{
		Primary:       primaryURL,
		MkLock:        func() rwl.RWLock { return core.New(new(stdrw.Lock)) },
		RetryInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	followerSrv := NewFollower(f, Config{ReapInterval: -1, MinLSNWait: 2 * time.Second})
	t.Cleanup(func() { followerSrv.Close() })
	followerWire := addWireListener(t, followerSrv)

	pc := dialWire(t, primaryWire)
	fc := dialWire(t, followerWire)

	// Write on the primary: the response carries the shard's commit LSN.
	r := wireDo(t, pc, wire.Request{Op: wire.OpPut, Key: 42, Value: []byte("hello")})
	if r.Status != wire.StatusOK || len(r.LSNs) != 1 || r.LSNs[0].LSN == 0 {
		t.Fatalf("durable wire PUT returned LSNs %v, status %v, want one nonzero token", r.LSNs, r.Status)
	}
	token := r.LSNs[0].LSN

	// Read-your-writes on the follower, token-gated: the follower waits for
	// replication to cover the token, then serves the value.
	if r := wireDo(t, fc, wire.Request{Op: wire.OpGet, Key: 42, MinLSN: token}); r.Status != wire.StatusOK || string(r.Value) != "hello" {
		t.Fatalf("follower wire GET(min_lsn=%d) = %q, status %v", token, r.Value, r.Status)
	}
	// A token from the future conflicts after the bounded wait. Use a
	// short-wait connection so the test does not sit out the full window.
	shortSrv := NewFollower(f, Config{ReapInterval: -1, MinLSNWait: 50 * time.Millisecond})
	t.Cleanup(func() { shortSrv.Close() })
	sc := dialWire(t, addWireListener(t, shortSrv))
	if r := wireDo(t, sc, wire.Request{Op: wire.OpGet, Key: 42, MinLSN: token + 1_000_000}); r.Status != wire.StatusConflict {
		t.Fatalf("future token: status %v, want StatusConflict", r.Status)
	}
	// Writes on the follower's wire port are refused read-only.
	if r := wireDo(t, fc, wire.Request{Op: wire.OpPut, Key: 7, Value: []byte("nope")}); r.Status != wire.StatusReadOnly {
		t.Fatalf("follower write: status %v, want StatusReadOnly", r.Status)
	}
	// The batched path honors tokens too. A single min_lsn gates every
	// shard an MGET touches, so the read-your-writes pattern is per-shard:
	// batch keys of one shard, gate on that shard's token.
	shard := engine.ShardOf(100)
	keys := []uint64{100}
	for k := uint64(101); len(keys) < 3; k++ {
		if engine.ShardOf(k) == shard {
			keys = append(keys, k)
		}
	}
	r = wireDo(t, pc, wire.Request{Op: wire.OpMPut, Keys: keys, Values: [][]byte{{0xA}, {0xB}, {0xC}}})
	if r.Status != wire.StatusOK || len(r.LSNs) != 1 {
		t.Fatalf("same-shard wire MPUT: status %v, lsns %v (want exactly one shard token)", r.Status, r.LSNs)
	}
	mlsn := r.LSNs[0].LSN
	r = wireDo(t, fc, wire.Request{Op: wire.OpMGet, Keys: keys, MinLSN: mlsn})
	if vals := r.Values; r.Status != wire.StatusOK || len(vals) != 3 || vals[0] == nil || vals[0][0] != 0xA || vals[2] == nil || vals[2][0] != 0xC {
		t.Fatalf("follower wire MGET(min_lsn=%d) = %v, status %v", mlsn, r.Values, r.Status)
	}
}

// TestWireCloseDrainsPipelined pins the graceful-shutdown drain: a burst of
// pipelined requests already on the socket when Close begins must all be
// answered before the connection drops.
func TestWireCloseDrainsPipelined(t *testing.T) {
	addr, _, srv := startWireServer(t, nil, Config{ReapInterval: -1})
	conn, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// The burst is one small TCP write, so the server's first read slurps
	// every frame into its decoder buffer — from there the drain guarantee
	// owns them.
	const burst = 64
	pending := make([]*wire.Pending, 0, burst)
	for i := uint64(0); i < burst; i++ {
		p, err := conn.Start(&wire.Request{Op: wire.OpPut, Key: i, Value: []byte("drain")})
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, p)
	}
	if err := conn.Flush(); err != nil {
		t.Fatal(err)
	}
	// The first answer proves the server has read the burst; then shut down
	// while the rest are still queued behind it.
	if _, err := pending[0].Wait(); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	// pending[0] was consumed above (a Pending answers exactly once).
	for i, p := range pending[1:] {
		if resp, err := p.Wait(); err != nil {
			t.Fatalf("pipelined request %d lost in shutdown: %v", i, err)
		} else if resp.Status != wire.StatusOK {
			t.Fatalf("pipelined request %d answered %v during drain", i, resp.Status)
		}
	}
	<-closed
}

// TestWireManyConnections is the many-connection smoke CI runs under
// -race: hundreds of concurrent wire connections, each with its own pinned
// reader, reading and writing through the same engine.
func TestWireManyConnections(t *testing.T) {
	conns := 1000
	if testing.Short() {
		conns = 100
	}
	addr, _, _ := startWireServer(t, nil, Config{ReapInterval: -1})
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			conn, err := wire.Dial(addr, 10*time.Second)
			if err != nil {
				errs <- fmt.Errorf("conn %d: dial: %w", id, err)
				return
			}
			defer conn.Close()
			if _, err := conn.Do(&wire.Request{Op: wire.OpPut, Key: id, Value: []byte{byte(id)}}); err != nil {
				errs <- fmt.Errorf("conn %d: put: %w", id, err)
				return
			}
			resp, err := conn.Do(&wire.Request{Op: wire.OpGet, Key: id})
			if err != nil || resp.Status != wire.StatusOK || len(resp.Value) != 1 || resp.Value[0] != byte(id) {
				errs <- fmt.Errorf("conn %d: get = %v, %v", id, resp.Status, err)
			}
		}(uint64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
