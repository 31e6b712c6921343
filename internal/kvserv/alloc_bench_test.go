package kvserv

// Allocation benchmarks for the hot serving paths, HTTP and wire. Run
// with -benchmem; the allocs/op column is the audit. The engine's value
// copy-out is inherent (data leaves the lock's critical section); the
// serving layer's own per-request allocations are the target.

import (
	"testing"

	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/wire"
)

func benchEngine(b testing.TB) *kvs.Sharded {
	b.Helper()
	engine, err := kvs.NewSharded(8, func() rwl.RWLock { return core.New(new(stdrw.Lock)) })
	if err != nil {
		b.Fatal(err)
	}
	value := make([]byte, 128)
	for k := uint64(0); k < 1024; k++ {
		engine.Put(k, value)
	}
	return engine
}

// The HTTP benchmarks run the connection loop over loopback TCP with a
// client that allocates nothing, so allocs/op is the server's.
func benchHTTP(b *testing.B, req string) {
	c := dialRaw(b, New(benchEngine(b), Config{ReapInterval: -1}), req)
	c.roundTrip(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.roundTrip(b)
	}
}

func BenchmarkHTTPGet(b *testing.B) {
	benchHTTP(b, "GET /kv/42 HTTP/1.1\r\nHost: x\r\n\r\n")
}

func BenchmarkHTTPMGet(b *testing.B) {
	benchHTTP(b, "GET /mget?keys=1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16 HTTP/1.1\r\nHost: x\r\n\r\n")
}

func BenchmarkHTTPStats(b *testing.B) {
	benchHTTP(b, "GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
}

// benchWire runs req through the executor on one connection's scratch and
// encodes each response, as the wire loop does.
func benchWire(b *testing.B, req wire.Request) {
	srv := New(benchEngine(b), Config{ReapInterval: -1})
	reader, sc := rwl.NewReader(), new(scratch)
	var out []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := srv.execute(reader, &req, sc)
		out = wire.AppendResponse(out[:0], &resp)
	}
}

// benchKeys is a 16-key batch.
var benchKeys = []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

func BenchmarkWireGet(b *testing.B) { benchWire(b, wire.Request{Op: wire.OpGet, ID: 1, Key: 42}) }
func BenchmarkWireMGet(b *testing.B) {
	benchWire(b, wire.Request{Op: wire.OpMGet, ID: 1, Keys: benchKeys})
}
func BenchmarkWireMPut(b *testing.B) {
	vals := make([][]byte, len(benchKeys))
	for i := range vals {
		vals[i] = make([]byte, 128)
	}
	benchWire(b, wire.Request{Op: wire.OpMPut, ID: 1, Keys: benchKeys, Values: vals})
}

// BenchmarkWireStats exercises the wire STATS path (JSON document build).
func BenchmarkWireStats(b *testing.B) { benchWire(b, wire.Request{Op: wire.OpStats, ID: 1}) }
