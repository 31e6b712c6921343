package kvserv

// What the wire front end owes beyond the semantics it shares with HTTP
// (harness_test.go): the properties the protocol exists for (a batch takes
// one lock acquisition per shard group, responses are batched per pipeline
// burst), malformed frames answered or the connection closed cleanly, the
// graceful-shutdown drain, and a thousand connections at once.

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/frame"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/wire"
)

// startWireServer serves engine (a fresh volatile one when nil) and
// returns its wire address, the engine, and the server.
func startWireServer(t *testing.T, engine *kvs.Sharded, cfg Config) (string, *kvs.Sharded, *Server) {
	t.Helper()
	if engine == nil {
		var err error
		if engine, err = kvs.NewSharded(8, mkMatrixLock); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(engine, cfg)
	_, addr := serveBoth(t, srv)
	return addr, engine, srv
}

// TestWireBatchOneLockPerShardGroup is the acceptance check for the
// protocol's whole point: one wire batch of N keys spanning S shards is
// applied as exactly S combined write batches — S write-lock acquisitions
// — not N, and read as S shard-group batches. Asserted on the engine's own
// counters, not timing.
func TestWireBatchOneLockPerShardGroup(t *testing.T) {
	addr, engine, _ := startWireServer(t, nil, Config{ReapInterval: -1})
	c, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 64
	keys, vals, shards := make([]uint64, n), make([][]byte, n), map[int]bool{}
	for i := range keys {
		keys[i], vals[i] = uint64(i*3), []byte("v")
		shards[engine.ShardOf(keys[i])] = true
	}
	if s := len(shards); s < 2 || s >= n {
		t.Fatalf("test keys span %d shards of %d keys: pick a better spread", s, n)
	}
	for _, b := range []struct {
		req     wire.Request
		batches func(kvs.ShardStats) uint64
		keys    func(kvs.ShardStats) uint64 // n of them per batch op
	}{
		{wire.Request{Op: wire.OpMPut, Keys: keys, Values: vals},
			func(st kvs.ShardStats) uint64 { return st.WriteBatches }, func(st kvs.ShardStats) uint64 { return st.Puts }},
		{wire.Request{Op: wire.OpMDelete, Keys: keys},
			func(st kvs.ShardStats) uint64 { return st.WriteBatches }, func(st kvs.ShardStats) uint64 { return st.Deletes }},
		{wire.Request{Op: wire.OpMGet, Keys: keys},
			func(st kvs.ShardStats) uint64 { return st.MultiGetBatches }, func(st kvs.ShardStats) uint64 { return st.MultiGetKeys }},
	} {
		before := engine.Stats().Total()
		if r, err := c.Do(&b.req); err != nil || r.Status != wire.StatusOK {
			t.Fatalf("%s: %v, status %v", b.req.Op, err, r.Status)
		}
		after := engine.Stats().Total()
		if got := b.batches(after) - b.batches(before); got != uint64(len(shards)) {
			t.Fatalf("%s of %d keys over %d shards took %d shard-group batches, want exactly %d", b.req.Op, n, len(shards), got, len(shards))
		}
		if got := b.keys(after) - b.keys(before); got != n {
			t.Fatalf("%s carried %d keys, want %d", b.req.Op, got, n)
		}
	}
}

// TestWireMalformedBody: a sound frame whose body does not decode is
// answered StatusBadRequest by id, and the connection keeps serving.
func TestWireMalformedBody(t *testing.T) {
	addr, _, _ := startWireServer(t, nil, Config{ReapInterval: -1})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// Header parses (version, op GET, id 77) but the body is one byte
	// short of a key.
	bad := frame.Append(nil, []byte{wire.Version, byte(wire.OpGet), 0, 77, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3})
	if _, err := nc.Write(bad); err != nil {
		t.Fatal(err)
	}
	dec := wire.NewStreamDecoder(nc, 0)
	payload, err := dec.Next()
	if err != nil {
		t.Fatalf("reading malformed-body response: %v", err)
	}
	resp, ok := wire.DecodeResponse(payload)
	if !ok || resp.ID != 77 || resp.Status != wire.StatusBadRequest {
		t.Fatalf("malformed body answered %+v, want BadRequest id=77", resp)
	}

	// The connection survived: a valid request on it still works.
	good := wire.AppendRequest(nil, &wire.Request{Op: wire.OpGet, ID: 78, Key: 5})
	if _, err := nc.Write(good); err != nil {
		t.Fatal(err)
	}
	payload, err = dec.Next()
	if err != nil {
		t.Fatalf("reading post-malformed response: %v", err)
	}
	if resp, ok := wire.DecodeResponse(payload); !ok || resp.ID != 78 || resp.Status != wire.StatusNotFound {
		t.Fatalf("follow-up request answered %+v", resp)
	}
}

// TestWireCorruptFrameCloses: a corrupt envelope loses frame boundaries;
// the server closes the connection rather than guessing.
func TestWireCorruptFrameCloses(t *testing.T) {
	addr, _, _ := startWireServer(t, nil, Config{ReapInterval: -1})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	f := wire.AppendRequest(nil, &wire.Request{Op: wire.OpGet, ID: 1, Key: 5})
	f[len(f)-1]++ // CRC mismatch
	if _, err := nc.Write(f); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf [64]byte
	if n, err := nc.Read(buf[:]); err == nil {
		t.Fatalf("server answered %d bytes to a corrupt frame, want close", n)
	}
}

// TestWireUnknownOp: an op the server does not recognize — an unassigned
// one, the retired FLUSH (7), or a PUT carrying the retired async flag
// (1<<1) — still gets a typed answer (DecodeRequest rejects it, the header
// fallback names it), and the connection keeps serving.
func TestWireUnknownOp(t *testing.T) {
	addr, _, _ := startWireServer(t, nil, Config{ReapInterval: -1})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	asyncPut := wire.AppendRequest(nil, &wire.Request{Op: wire.OpPut, ID: 44, Key: 5, Value: []byte("x")})
	asyncPut[frame.HeaderSize+2] |= 1 << 1
	frame.Seal(asyncPut)
	dec := wire.NewStreamDecoder(nc, 0)
	for id, f := range map[uint64][]byte{
		42: frame.Append(nil, []byte{wire.Version, 99, 0, 42, 0, 0, 0, 0, 0, 0, 0}),
		43: frame.Append(nil, []byte{wire.Version, 7, 0, 43, 0, 0, 0, 0, 0, 0, 0}),
		44: asyncPut,
	} {
		if _, err := nc.Write(f); err != nil {
			t.Fatal(err)
		}
		payload, err := dec.Next()
		if err != nil {
			t.Fatalf("id %d: reading the refusal: %v", id, err)
		}
		if resp, ok := wire.DecodeResponse(payload); !ok || resp.ID != id || resp.Status != wire.StatusBadRequest {
			t.Fatalf("id %d answered %+v, want BadRequest", id, resp)
		}
	}
	if _, err := nc.Write(wire.AppendRequest(nil, &wire.Request{Op: wire.OpGet, ID: 45, Key: 5})); err != nil {
		t.Fatal(err)
	}
	payload, err := dec.Next()
	if err != nil {
		t.Fatalf("reading the GET after the refusals: %v", err)
	}
	if resp, ok := wire.DecodeResponse(payload); !ok || resp.ID != 45 || resp.Status != wire.StatusNotFound {
		t.Fatalf("GET after the refusals answered %+v, want a miss (the PUT must not apply)", resp)
	}
}

// TestWireResponseBatching: a pipelined burst is answered in one (or few)
// TCP segments — observable as all responses arriving without interleaved
// flush round trips. Functional check: every response of a 100-deep burst
// arrives and correlates.
func TestWireResponseBatching(t *testing.T) {
	addr, _, _ := startWireServer(t, nil, Config{ReapInterval: -1})
	conn, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const depth = 100
	pendings := make([]*wire.Pending, depth)
	for i := range pendings {
		p, err := conn.Start(&wire.Request{Op: wire.OpPut, Key: uint64(i), Value: []byte("v")})
		if err != nil {
			t.Fatalf("Start %d: %v", i, err)
		}
		pendings[i] = p
	}
	if err := conn.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, p := range pendings {
		if _, err := p.Wait(); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
	}
}

// TestWireCloseDrainsPipelined pins the graceful-shutdown drain: a burst of
// pipelined requests already on the socket when Close begins must all be
// answered before the connection drops.
func TestWireCloseDrainsPipelined(t *testing.T) {
	t.Parallel()
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

// TestWireManyConnections is the many-connection smoke CI runs under -race:
// a thousand concurrent wire connections, each with its own pinned reader,
// writing its own key and reading it back through the same engine.
func TestWireManyConnections(t *testing.T) {
	t.Parallel()
	conns := 1000
	if testing.Short() {
		conns = 100
	}
	st := newHStore(t, volatileStore, Config{ReapInterval: -1})
	var wg sync.WaitGroup
	for i := range conns {
		c := &client{t: t, st: st, fr: "wire", name: fmt.Sprintf("connection %d", i), model: map[uint64]entry{}, wcs: map[string]*wire.Conn{}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.do(wire.Request{Op: wire.OpPut, Key: uint64(i), Value: []byte{byte(i)}})
			c.do(wire.Request{Op: wire.OpGet, Key: uint64(i)})
			if wc := c.wcs[st.wire]; wc != nil {
				wc.Close()
			}
		}()
	}
	wg.Wait()
}
