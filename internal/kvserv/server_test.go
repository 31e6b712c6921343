package kvserv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/rwl"
)

// startServer boots a server over a BRAVO-wrapped engine on a real TCP
// socket and returns its base URL plus a cleanup.
func startServer(t *testing.T, cfg Config) (string, *kvs.Sharded) {
	t.Helper()
	engine, err := kvs.NewSharded(8, func() rwl.RWLock { return core.New(new(stdrw.Lock)) })
	if err != nil {
		t.Fatal(err)
	}
	return startServerWith(t, engine, cfg), engine
}

// startServerWith serves a caller-built engine (volatile or durable).
func startServerWith(t *testing.T, engine *kvs.Sharded, cfg Config) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(engine, cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	})
	return "http://" + l.Addr().String()
}

func do(t *testing.T, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestServerEndToEnd drives the full GET/PUT/DELETE/MGET/MPUT/stats surface
// over a real TCP socket.
func TestServerEndToEnd(t *testing.T) {
	base, _ := startServer(t, Config{ReapInterval: -1})

	// PUT then GET round-trips raw bytes.
	resp, _ := do(t, http.MethodPut, base+"/kv/42", []byte("hello"))
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	resp, body := do(t, http.MethodGet, base+"/kv/42", nil)
	if resp.StatusCode != http.StatusOK || string(body) != "hello" {
		t.Fatalf("GET = %d %q, want 200 \"hello\"", resp.StatusCode, body)
	}

	// Misses and malformed keys.
	if resp, _ := do(t, http.MethodGet, base+"/kv/7", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET miss status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodGet, base+"/kv/notanumber", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET bad key status = %d, want 400", resp.StatusCode)
	}

	// DELETE removes; a second DELETE misses.
	if resp, _ := do(t, http.MethodDelete, base+"/kv/42", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodDelete, base+"/kv/42", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE status = %d, want 404", resp.StatusCode)
	}

	// MPUT applies a batch; MGET reads it back parallel to the keys.
	mput, _ := json.Marshal(mputRequest{Entries: []mputEntry{
		{Key: 1, Value: []byte("a")},
		{Key: 2, Value: []byte("b")},
	}})
	resp, body = do(t, http.MethodPost, base+"/mput", mput)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("MPUT status = %d: %s", resp.StatusCode, body)
	}
	var applied map[string]int
	if err := json.Unmarshal(body, &applied); err != nil || applied["applied"] != 2 {
		t.Fatalf("MPUT response %s (err %v), want applied=2", body, err)
	}
	resp, body = do(t, http.MethodGet, base+"/mget?keys=1,2,3", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("MGET status = %d", resp.StatusCode)
	}
	var got mgetResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("MGET body %s: %v", body, err)
	}
	if len(got.Values) != 3 || string(got.Values[0]) != "a" || string(got.Values[1]) != "b" || got.Values[2] != nil {
		t.Fatalf("MGET values = %q", got.Values)
	}

	// Stats reflect the traffic and the handle-capable engine.
	resp, body = do(t, http.MethodGet, base+"/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats body: %v", err)
	}
	if st.NumShards != 8 || !st.HandleCapable {
		t.Fatalf("stats = shards %d handle %v, want 8/true", st.NumShards, st.HandleCapable)
	}
	if st.Total.Gets == 0 || st.Total.Puts == 0 {
		t.Fatalf("stats counted gets=%d puts=%d, want traffic", st.Total.Gets, st.Total.Puts)
	}
	// The optimistic read posture surfaces: a positive attempt budget, and
	// with this test's uncontended reads the seq path served them (each
	// served read is classified exactly once across the three counters).
	if st.SeqReadAttempts <= 0 {
		t.Fatalf("seq_read_attempts = %d, want the engine default", st.SeqReadAttempts)
	}
	if st.Total.SeqReads == 0 {
		t.Fatalf("seq_reads = 0 with %d gets; optimistic path never served", st.Total.Gets)
	}
}

// TestServerReusesConnectionHandle checks the per-connection reader handle:
// sequential requests on one keep-alive connection reuse one pinned
// identity, and concurrent reads through it stay correct.
func TestServerReusesConnectionHandle(t *testing.T) {
	base, engine := startServer(t, Config{ReapInterval: -1})
	engine.Put(5, []byte("v"))
	// One client with keep-alive: many GETs ride one connection → one
	// handle. This is a correctness check (responses stay right when the
	// slot cache is hot), the perf claim lives in the bench.
	for i := 0; i < 50; i++ {
		resp, body := do(t, http.MethodGet, base+"/kv/5", nil)
		if resp.StatusCode != http.StatusOK || string(body) != "v" {
			t.Fatalf("GET #%d = %d %q", i, resp.StatusCode, body)
		}
	}
}

func TestServerTTLAndReaper(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: wall-clock TTL e2e (sleeps across a real deadline)")
	}
	base, engine := startServer(t, Config{ReapInterval: 10 * time.Millisecond, ReapBudget: 64})

	// A TTL'd PUT is visible before the deadline, gone after it. The
	// margin is generous so scheduler pauses on loaded CI hosts cannot
	// expire the key before the "before" read.
	resp, _ := do(t, http.MethodPut, base+"/kv/1?ttl=500ms", []byte("ephemeral"))
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT ttl status = %d", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodGet, base+"/kv/1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET before deadline = %d, want 200", resp.StatusCode)
	}
	time.Sleep(700 * time.Millisecond)
	if resp, _ := do(t, http.MethodGet, base+"/kv/1", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after deadline = %d, want 404", resp.StatusCode)
	}
	// The background reaper physically removes the residue (Len counts
	// resident entries, visible or not).
	deadline := time.Now().Add(2 * time.Second)
	for engine.Len() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := engine.Len(); n != 0 {
		t.Fatalf("reaper left %d resident entries", n)
	}
	if resp, _ := do(t, http.MethodPut, base+"/kv/2?ttl=bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT bad ttl status = %d, want 400", resp.StatusCode)
	}
}

func TestServerAsyncPutAndFlush(t *testing.T) {
	base, _ := startServer(t, Config{ReapInterval: -1})
	resp, _ := do(t, http.MethodPut, base+"/kv/9?async=1", []byte("queued"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async PUT status = %d, want 202", resp.StatusCode)
	}
	if resp, _ := do(t, http.MethodGet, base+"/kv/9", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET before flush = %d, want 404", resp.StatusCode)
	}
	resp, body := do(t, http.MethodPost, base+"/flush", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "\"flushed\":1") {
		t.Fatalf("flush = %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, http.MethodGet, base+"/kv/9", nil)
	if resp.StatusCode != http.StatusOK || string(body) != "queued" {
		t.Fatalf("GET after flush = %d %q", resp.StatusCode, body)
	}
	if resp, _ := do(t, http.MethodPut, base+"/kv/9?async=1&ttl=1s", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("async+ttl status = %d, want 400", resp.StatusCode)
	}
	// async=0 means synchronous: immediately visible, 204 not 202.
	resp, _ = do(t, http.MethodPut, base+"/kv/10?async=0", []byte("sync"))
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("async=0 PUT status = %d, want 204", resp.StatusCode)
	}
	if resp, body := do(t, http.MethodGet, base+"/kv/10", nil); resp.StatusCode != http.StatusOK || string(body) != "sync" {
		t.Fatalf("GET after async=0 PUT = %d %q, want immediate visibility", resp.StatusCode, body)
	}
	if resp, _ := do(t, http.MethodPut, base+"/kv/11?async=maybe", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("async=maybe status = %d, want 400", resp.StatusCode)
	}
}

func TestServerMPutTTL(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: wall-clock TTL e2e (sleeps across a real deadline)")
	}
	base, _ := startServer(t, Config{ReapInterval: -1})
	mput, _ := json.Marshal(mputRequest{
		Entries: []mputEntry{{Key: 1, Value: []byte("x")}},
		TTL:     "500ms", // generous: see TestServerTTLAndReaper
	})
	if resp, body := do(t, http.MethodPost, base+"/mput", mput); resp.StatusCode != http.StatusOK {
		t.Fatalf("MPUT ttl = %d %s", resp.StatusCode, body)
	}
	if resp, _ := do(t, http.MethodGet, base+"/kv/1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET before batch deadline != 200")
	}
	time.Sleep(700 * time.Millisecond)
	if resp, _ := do(t, http.MethodGet, base+"/kv/1", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after batch deadline != 404")
	}
}

// TestServerDurableCheckpointAndRestart serves a durable engine over real
// TCP: writes (sync, batched, and async-then-flushed) survive a server
// stop and a fresh server over the same directory; /checkpoint truncates
// the logs; /stats reports the durability posture.
func TestServerDurableCheckpointAndRestart(t *testing.T) {
	dir := t.TempDir()
	mk := func() rwl.RWLock { return core.New(new(stdrw.Lock)) }
	engine, err := kvs.OpenSharded(dir, 8, mk, kvs.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	base := startServerWith(t, engine, Config{ReapInterval: -1})

	if resp, _ := do(t, http.MethodPut, base+"/kv/1", []byte("durable")); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	mput, _ := json.Marshal(mputRequest{Entries: []mputEntry{
		{Key: 2, Value: []byte("batched")},
	}})
	if resp, body := do(t, http.MethodPost, base+"/mput", mput); resp.StatusCode != http.StatusOK {
		t.Fatalf("MPUT = %d %s", resp.StatusCode, body)
	}
	// An async write accepted with 202 must survive too: Server.Close
	// flushes the queue (and the flush is logged) before the engine closes.
	if resp, _ := do(t, http.MethodPut, base+"/kv/3?async=1", []byte("queued")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async PUT status = %d", resp.StatusCode)
	}

	// Checkpoint over HTTP: logs truncate, stats count it.
	resp, body := do(t, http.MethodPost, base+"/checkpoint", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint = %d %s", resp.StatusCode, body)
	}
	var st statsResponse
	_, body = do(t, http.MethodGet, base+"/stats", nil)
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Durable || st.SyncPolicy != "none" || st.WALError != "" {
		t.Fatalf("stats durability = %+v", st)
	}
	if st.Total.Checkpoints != uint64(st.NumShards) {
		t.Fatalf("Checkpoints = %d, want %d", st.Total.Checkpoints, st.NumShards)
	}

	if resp, _ := do(t, http.MethodPut, base+"/kv/4?ttl=1h", []byte("ttl")); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT ttl status = %d", resp.StatusCode)
	}

	// "Restart": close the engine (which drains the async queue into the
	// log, then syncs and closes it) and open a fresh engine + server over
	// the same directory. The first server's deferred Close is harmless —
	// its engine is already closed and quiet.
	if err := engine.Close(); err != nil {
		t.Fatalf("engine.Close: %v", err)
	}
	e2, err := kvs.OpenSharded(dir, 8, mk, kvs.SyncNone)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { e2.Close() })
	base2 := startServerWith(t, e2, Config{ReapInterval: -1})
	for key, want := range map[string]string{"1": "durable", "2": "batched", "3": "queued", "4": "ttl"} {
		resp, body := do(t, http.MethodGet, base2+"/kv/"+key, nil)
		if resp.StatusCode != http.StatusOK || string(body) != want {
			t.Fatalf("restarted GET /kv/%s = %d %q, want %q", key, resp.StatusCode, body, want)
		}
	}
	if resp, _ := do(t, http.MethodPost, base2+"/checkpoint", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint on restarted server = %d", resp.StatusCode)
	}
}

// TestServerCheckpointVolatileConflicts: /checkpoint without -data-dir is
// an operator error, answered 409.
func TestServerCheckpointVolatile(t *testing.T) {
	base, _ := startServer(t, Config{ReapInterval: -1})
	if resp, _ := do(t, http.MethodPost, base+"/checkpoint", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("volatile checkpoint = %d, want 409", resp.StatusCode)
	}
	_, body := do(t, http.MethodGet, base+"/stats", nil)
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Durable || st.SyncPolicy != "" {
		t.Fatalf("volatile stats claim durability: %+v", st)
	}
}

// TestServerStatsAdaptiveBias: an adaptive engine's per-shard bias mode and
// flip counts flow through GET /stats untouched (the same rows back the wire
// STATS verb), and a non-adaptive engine omits the fields entirely.
func TestServerStatsAdaptiveBias(t *testing.T) {
	engine, err := kvs.NewSharded(4, func() rwl.RWLock {
		return core.New(new(stdrw.Lock), core.WithPolicy(bias.NewAdaptor(bias.Thresholds{})))
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.ShardAdaptor(2).ForceMode(bias.ModeNeutral)
	base := startServerWith(t, engine, Config{ReapInterval: -1})

	_, body := do(t, http.MethodGet, base+"/stats", nil)
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("stats shards = %d, want 4", len(st.Shards))
	}
	for i, row := range st.Shards {
		want := "biased"
		if i == 2 {
			want = "neutral"
		}
		if row.BiasMode != want {
			t.Fatalf("shard %d bias_mode = %q, want %q", i, row.BiasMode, want)
		}
	}
	if st.Total.BiasMode != "mixed" || st.Total.BiasFlips != 1 {
		t.Fatalf("total bias = %q/%d, want mixed/1", st.Total.BiasMode, st.Total.BiasFlips)
	}
	if !bytes.Contains(body, []byte(`"bias_mode":"neutral"`)) {
		t.Fatalf("raw /stats body lacks bias_mode field: %s", body)
	}

	// Non-adaptive engines never emit the fields (omitempty + no adaptor).
	base2, _ := startServer(t, Config{ReapInterval: -1})
	_, body2 := do(t, http.MethodGet, base2+"/stats", nil)
	if bytes.Contains(body2, []byte("bias_mode")) {
		t.Fatalf("non-adaptive /stats leaked bias_mode: %s", body2)
	}
}

func ExampleServer() {
	engine, _ := kvs.NewSharded(4, func() rwl.RWLock { return core.New(new(stdrw.Lock)) })
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	srv := New(engine, Config{})
	go srv.Serve(l)
	defer srv.Close()

	base := "http://" + l.Addr().String()
	req, _ := http.NewRequest(http.MethodPut, base+"/kv/7", strings.NewReader("paper"))
	resp, _ := http.DefaultClient.Do(req)
	resp.Body.Close()
	resp, _ = http.Get(base + "/kv/7")
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Println(string(b))
	// Output: paper
}
