package kvserv

// The wire front-end's serving contract: same engine, same semantics as
// HTTP, over the pipelined binary protocol — plus the properties the
// protocol exists for (batch = one lock acquisition per shard group,
// responses batched per pipeline burst, malformed frames answered or the
// connection closed cleanly).

import (
	"bytes"
	"net"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/frame"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/wire"
)

// startWireServer boots a wire listener over engine (built fresh when
// nil) and returns its address, the engine, and the server.
func startWireServer(t *testing.T, engine *kvs.Sharded, cfg Config) (string, *kvs.Sharded, *Server) {
	t.Helper()
	if engine == nil {
		var err error
		engine, err = kvs.NewSharded(8, func() rwl.RWLock { return core.New(new(stdrw.Lock)) })
		if err != nil {
			t.Fatal(err)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(engine, cfg)
	done := make(chan error, 1)
	go func() { done <- srv.ServeWire(l) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != ErrServerClosed {
			t.Errorf("ServeWire returned %v, want ErrServerClosed", err)
		}
	})
	return l.Addr().String(), engine, srv
}

// dialWire connects to a wire listener; the connection closes with the
// test.
func dialWire(t *testing.T, addr string) *wire.Conn {
	t.Helper()
	c, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// wireDo runs req on c and fails the test on a transport error; the
// response's Status is the caller's to check.
func wireDo(t *testing.T, c *wire.Conn, req wire.Request) wire.Response {
	t.Helper()
	resp, err := c.Do(&req)
	if err != nil {
		t.Fatalf("wire %s: %v", req.Op, err)
	}
	return resp
}

func TestWireCRUD(t *testing.T) {
	addr, _, _ := startWireServer(t, nil, Config{ReapInterval: -1})
	c := dialWire(t, addr)

	if r := wireDo(t, c, wire.Request{Op: wire.OpGet, Key: 1}); r.Status != wire.StatusNotFound {
		t.Fatalf("get before put: status %v", r.Status)
	}
	if r := wireDo(t, c, wire.Request{Op: wire.OpPut, Key: 1, Value: []byte("hello")}); r.Status != wire.StatusOK {
		t.Fatalf("put: status %v", r.Status)
	}
	if r := wireDo(t, c, wire.Request{Op: wire.OpGet, Key: 1}); r.Status != wire.StatusOK || !bytes.Equal(r.Value, []byte("hello")) {
		t.Fatalf("get: %q, status %v", r.Value, r.Status)
	}
	if r := wireDo(t, c, wire.Request{Op: wire.OpDelete, Key: 1}); r.Status != wire.StatusOK {
		t.Fatalf("delete: status %v", r.Status)
	}
	if r := wireDo(t, c, wire.Request{Op: wire.OpDelete, Key: 1}); r.Status != wire.StatusNotFound {
		t.Fatalf("delete miss: status %v", r.Status)
	}

	// TTL attaches an expiry the read path honors.
	if r := wireDo(t, c, wire.Request{Op: wire.OpPut, Key: 2, Value: []byte("fleeting"), TTL: 10 * time.Millisecond}); r.Status != wire.StatusOK {
		t.Fatalf("put ttl: status %v", r.Status)
	}
	if r := wireDo(t, c, wire.Request{Op: wire.OpGet, Key: 2}); r.Status != wire.StatusOK {
		t.Fatal("ttl value missing before expiry")
	}
	time.Sleep(20 * time.Millisecond)
	if r := wireDo(t, c, wire.Request{Op: wire.OpGet, Key: 2}); r.Status != wire.StatusNotFound {
		t.Fatal("ttl value visible after expiry")
	}

	// Batches.
	keys := []uint64{10, 11, 12}
	vals := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	if r := wireDo(t, c, wire.Request{Op: wire.OpMPut, Keys: keys, Values: vals}); r.Status != wire.StatusOK {
		t.Fatalf("mput: status %v", r.Status)
	}
	r := wireDo(t, c, wire.Request{Op: wire.OpMGet, Keys: []uint64{10, 11, 12, 99}})
	if r.Status != wire.StatusOK || len(r.Values) != 4 {
		t.Fatalf("mget: %v, status %v", r.Values, r.Status)
	}
	for i := range keys {
		if !bytes.Equal(r.Values[i], vals[i]) {
			t.Fatalf("mget[%d] = %q, want %q", i, r.Values[i], vals[i])
		}
	}
	if r.Values[3] != nil {
		t.Fatalf("mget absent key = %q, want nil", r.Values[3])
	}
	if r := wireDo(t, c, wire.Request{Op: wire.OpMDelete, Keys: []uint64{10, 11, 99}}); r.Status != wire.StatusOK || r.Applied != 2 {
		t.Fatalf("mdelete: %d, status %v", r.Applied, r.Status)
	}

	// Stats over the wire is the /stats document.
	if r := wireDo(t, c, wire.Request{Op: wire.OpStats}); !bytes.Contains(r.Stats, []byte(`"num_shards":8`)) {
		t.Fatalf("stats: status %v, %.120s", r.Status, r.Stats)
	}
}

// TestWireBatchOneLockPerShardGroup is the acceptance check for the
// protocol's whole point: one wire batch of N keys spanning S shards is
// applied as exactly S combined write batches — S write-lock acquisitions
// — not N. Asserted on the engine's own counters, not timing.
func TestWireBatchOneLockPerShardGroup(t *testing.T) {
	addr, engine, _ := startWireServer(t, nil, Config{ReapInterval: -1})
	c := dialWire(t, addr)

	const n = 64
	keys := make([]uint64, n)
	vals := make([][]byte, n)
	shards := map[int]bool{}
	for i := range keys {
		keys[i] = uint64(i * 3)
		vals[i] = []byte("v")
		shards[engine.ShardOf(keys[i])] = true
	}
	s := len(shards)
	if s < 2 || s >= n {
		t.Fatalf("test keys span %d shards of %d keys: pick a better spread", s, n)
	}

	before := engine.Stats().Total()
	if r := wireDo(t, c, wire.Request{Op: wire.OpMPut, Keys: keys, Values: vals}); r.Status != wire.StatusOK {
		t.Fatalf("mput: status %v", r.Status)
	}
	after := engine.Stats().Total()

	if got := after.WriteBatches - before.WriteBatches; got != uint64(s) {
		t.Fatalf("MPUT of %d keys over %d shards took %d write-lock batches, want exactly %d", n, s, got, s)
	}
	if got := after.Puts - before.Puts; got != n {
		t.Fatalf("MPUT applied %d puts, want %d", got, n)
	}

	// Same contract on the delete batch.
	before = after
	if r := wireDo(t, c, wire.Request{Op: wire.OpMDelete, Keys: keys}); r.Status != wire.StatusOK {
		t.Fatalf("mdelete: status %v", r.Status)
	}
	after = engine.Stats().Total()
	if got := after.WriteBatches - before.WriteBatches; got != uint64(s) {
		t.Fatalf("MDELETE of %d keys over %d shards took %d write-lock batches, want exactly %d", n, s, got, s)
	}

	// And the read side: one shard-group batch per shard, not N gets
	// (MultiGetBatches counts per shard group).
	before = after
	if r := wireDo(t, c, wire.Request{Op: wire.OpMGet, Keys: keys}); r.Status != wire.StatusOK {
		t.Fatalf("mget: status %v", r.Status)
	}
	after = engine.Stats().Total()
	if got := after.MultiGetBatches - before.MultiGetBatches; got != uint64(s) {
		t.Fatalf("MGET of %d keys over %d shards ran %d shard-group batches, want exactly %d", n, s, got, s)
	}
	if got := after.MultiGetKeys - before.MultiGetKeys; got != n {
		t.Fatalf("MGET carried %d keys, want %d", got, n)
	}
}

// TestWireMinLSNPrimary: a durable primary's commit tokens round-trip
// through the wire and gate reads the same way ?min_lsn= does.
func TestWireMinLSNPrimary(t *testing.T) {
	dir := t.TempDir()
	engine, err := kvs.OpenSharded(dir, 8, func() rwl.RWLock { return core.New(new(stdrw.Lock)) }, kvs.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { engine.Close() })
	addr, _, _ := startWireServer(t, engine, Config{ReapInterval: -1, MinLSNWait: 50 * time.Millisecond})
	c := dialWire(t, addr)

	r := wireDo(t, c, wire.Request{Op: wire.OpPut, Key: 7, Value: []byte("x")})
	if r.Status != wire.StatusOK || len(r.LSNs) != 1 {
		t.Fatalf("put: lsns=%v status %v", r.LSNs, r.Status)
	}
	lsn := r.LSNs[0].LSN
	// The token the write handed out covers the read.
	if r := wireDo(t, c, wire.Request{Op: wire.OpGet, Key: 7, MinLSN: lsn}); r.Status != wire.StatusOK {
		t.Fatalf("get with own token: status %v", r.Status)
	}
	// A token this primary never issued is a conflict, not a wait.
	if r := wireDo(t, c, wire.Request{Op: wire.OpGet, Key: 7, MinLSN: lsn + 1000}); r.Status != wire.StatusConflict {
		t.Fatalf("get with future token: status %v, want StatusConflict", r.Status)
	}
}

// TestWireMinLSNVolatile: tokens against a volatile server are a client
// bug and answer BadRequest, as on HTTP.
func TestWireMinLSNVolatile(t *testing.T) {
	addr, _, _ := startWireServer(t, nil, Config{ReapInterval: -1})
	c := dialWire(t, addr)
	if r := wireDo(t, c, wire.Request{Op: wire.OpGet, Key: 1, MinLSN: 5}); r.Status != wire.StatusBadRequest {
		t.Fatalf("min_lsn on volatile: status %v, want StatusBadRequest", r.Status)
	}
}

// TestWireValueCaps: per-value caps answer StatusTooLarge, same limit as
// HTTP's 413.
func TestWireValueCaps(t *testing.T) {
	addr, _, _ := startWireServer(t, nil, Config{ReapInterval: -1})
	c := dialWire(t, addr)
	big := make([]byte, MaxValueBytes+1)
	if r := wireDo(t, c, wire.Request{Op: wire.OpPut, Key: 1, Value: big}); r.Status != wire.StatusTooLarge {
		t.Fatalf("oversize put: status %v, want StatusTooLarge", r.Status)
	}
	if r := wireDo(t, c, wire.Request{Op: wire.OpMPut, Keys: []uint64{1}, Values: [][]byte{big}}); r.Status != wire.StatusTooLarge {
		t.Fatalf("oversize mput entry: status %v, want StatusTooLarge", r.Status)
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
