package kvserv

// Allocation benchmarks for the hot serving paths, HTTP and wire. Run
// with -benchmem; the allocs/op column is the audit. The engine's value
// copy-out is inherent (data leaves the lock's critical section); the
// serving layer's own per-request allocations are the target.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/wire"
)

// discardResponseWriter is a ResponseWriter with no recorder overhead, so
// the benchmark measures the handler, not the test harness.
type discardResponseWriter struct {
	h http.Header
}

func (w *discardResponseWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header, 4)
	}
	return w.h
}
func (w *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardResponseWriter) WriteHeader(int)             {}

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

func BenchmarkHTTPGet(b *testing.B) {
	srv := New(benchEngine(b), Config{ReapInterval: -1})
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/kv/42", nil)
	w := &discardResponseWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(w.h)
		h.ServeHTTP(w, req)
	}
}

func BenchmarkHTTPMGet(b *testing.B) {
	srv := New(benchEngine(b), Config{ReapInterval: -1})
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/mget?keys=1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16", nil)
	w := &discardResponseWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(w.h)
		h.ServeHTTP(w, req)
	}
}

func BenchmarkHTTPStats(b *testing.B) {
	srv := New(benchEngine(b), Config{ReapInterval: -1})
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	w := &discardResponseWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(w.h)
		h.ServeHTTP(w, req)
	}
}

func BenchmarkWireGet(b *testing.B) {
	srv := New(benchEngine(b), Config{ReapInterval: -1})
	reader := rwl.NewReader()
	sc := new(scratch)
	req := wire.Request{Op: wire.OpGet, ID: 1, Key: 42}
	var out []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := srv.execute(reader, &req, sc)
		out = wire.AppendResponse(out[:0], &resp)
	}
	_ = out
}

func BenchmarkWireMGet(b *testing.B) {
	srv := New(benchEngine(b), Config{ReapInterval: -1})
	reader := rwl.NewReader()
	sc := new(scratch)
	keys := make([]uint64, 16)
	for i := range keys {
		keys[i] = uint64(i)
	}
	req := wire.Request{Op: wire.OpMGet, ID: 1, Keys: keys}
	var out []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := srv.execute(reader, &req, sc)
		out = wire.AppendResponse(out[:0], &resp)
	}
	_ = out
}

func BenchmarkWireMPut(b *testing.B) {
	srv := New(benchEngine(b), Config{ReapInterval: -1})
	reader := rwl.NewReader()
	sc := new(scratch)
	keys := make([]uint64, 16)
	vals := make([][]byte, 16)
	value := make([]byte, 128)
	for i := range keys {
		keys[i] = uint64(i)
		vals[i] = value
	}
	req := wire.Request{Op: wire.OpMPut, ID: 1, Keys: keys, Values: vals}
	var out []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := srv.execute(reader, &req, sc)
		out = wire.AppendResponse(out[:0], &resp)
	}
	_ = out
}

// BenchmarkWireStats exercises the wire STATS path (JSON document build).
func BenchmarkWireStats(b *testing.B) {
	srv := New(benchEngine(b), Config{ReapInterval: -1})
	reader := rwl.NewReader()
	sc := new(scratch)
	req := wire.Request{Op: wire.OpStats, ID: 1}
	var out []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := srv.execute(reader, &req, sc)
		out = wire.AppendResponse(out[:0], &resp)
	}
	_ = out
}

// TestDiscardResponseWriter keeps the benchmark fixture honest: handlers
// that write through it must behave as with a real recorder.
func TestDiscardResponseWriter(t *testing.T) {
	srv := New(benchEngine(t), Config{ReapInterval: -1})
	h := srv.Handler()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/kv/42", nil))
	if w.Code != http.StatusOK || w.Body.Len() != 128 {
		t.Fatalf("control GET = %d, %d bytes", w.Code, w.Body.Len())
	}
	fmt.Fprint(&discardResponseWriter{}, "") // interface satisfaction smoke
}
