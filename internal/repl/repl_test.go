package repl

// Shared harness plus the end-to-end test: a durable primary behind a real
// TCP socket, followers tailing it, reads converging. The model-based and
// chaos suites build on the same host.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/locks/pfq"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/rwl"
)

func mkStd() rwl.RWLock   { return new(stdrw.Lock) }
func mkBravo() rwl.RWLock { return core.New(new(pfq.Lock)) }

// primaryHost serves a swappable engine's replication endpoints — the
// "machine" a primary process runs on, which chaos tests can take down
// and bring back with a recovered engine. While down it answers 503,
// which followers treat like any other outage: retry.
type primaryHost struct {
	mu sync.Mutex
	h  http.Handler
}

func (ph *primaryHost) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ph.mu.Lock()
	h := ph.h
	ph.mu.Unlock()
	if h == nil {
		http.Error(w, "primary down", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// set installs engine as the served primary (nil takes the host down).
// wrap, when non-nil, wraps the handler (the chaos tests' stream cutter).
func (ph *primaryHost) set(engine *kvs.Sharded, wrap func(http.Handler) http.Handler) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if engine == nil {
		ph.h = nil
		return
	}
	mux := http.NewServeMux()
	p := NewPrimary(engine)
	p.Register(mux)
	var h http.Handler = mux
	if wrap != nil {
		h = wrap(mux)
	}
	ph.h = h
}

// testServer is a thin handle on an httptest server: its URL, shutdown,
// and the connection axe the chaos tests swing.
type testServer struct {
	url        string
	close      func()
	closeConns func()
}

func newTestServer(h http.Handler) *testServer {
	srv := httptest.NewServer(h)
	return &testServer{url: srv.URL, close: srv.Close, closeConns: srv.CloseClientConnections}
}

// startPrimary opens a durable engine in dir and serves its replication
// endpoints over a real TCP socket, returning the engine, the base URL,
// and the host for later swaps.
func startPrimary(t *testing.T, dir string, shards int, mk rwl.Factory) (*kvs.Sharded, string, *primaryHost) {
	engine, url, ph, _ := startPrimaryHost(t, dir, shards, mk)
	return engine, url, ph
}

// startPrimaryHost additionally returns the HTTP server, whose
// CloseClientConnections is the chaos tests' axe for established streams.
func startPrimaryHost(t *testing.T, dir string, shards int, mk rwl.Factory) (*kvs.Sharded, string, *primaryHost, *httptest.Server) {
	t.Helper()
	engine, err := kvs.OpenSharded(dir, shards, mk, kvs.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	ph := &primaryHost{}
	ph.set(engine, nil)
	srv := httptest.NewServer(ph)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { engine.Close() })
	return engine, srv.URL, ph, srv
}

// openFollower opens a follower with test-friendly pacing.
func openFollower(t *testing.T, primary string, opts func(*Config)) *Follower {
	t.Helper()
	cfg := Config{Primary: primary, MkLock: mkBravo, RetryInterval: 5 * time.Millisecond}
	if opts != nil {
		opts(&cfg)
	}
	f, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// requireConverged asserts the follower's visible state equals the
// primary's, shard by shard.
func requireConverged(t *testing.T, primary, follower *kvs.Sharded, label string) {
	t.Helper()
	want, got := primary.Snapshot(), follower.Snapshot()
	if len(want) != len(got) {
		t.Fatalf("%s: follower has %d visible keys, primary %d", label, len(got), len(want))
	}
	for k, wv := range want {
		gv, ok := got[k]
		if !ok || !bytes.Equal(gv, wv) {
			t.Fatalf("%s: key %d = %x (present %v), primary has %x", label, k, gv, ok, wv)
		}
	}
}

// lsnOracle is the chaos suites' prefix-consistency check: every applied
// record either continues its shard's sequence by exactly one or is a
// snapshot jump forward. Anything else is a lost, duplicated, or
// reordered record.
type lsnOracle struct {
	t    *testing.T
	mu   sync.Mutex
	last map[int]uint64
	// snapJumps counts snapshot-frame applications observed.
	snapJumps int
}

func newLSNOracle(t *testing.T) *lsnOracle {
	return &lsnOracle{t: t, last: map[int]uint64{}}
}

func (o *lsnOracle) hook(shard int, lsn uint64, snapshot bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	last := o.last[shard]
	if snapshot {
		if lsn < last {
			o.t.Errorf("oracle: snapshot rewound shard %d to LSN %d after %d", shard, lsn, last)
		}
		o.snapJumps++
	} else if lsn != last+1 {
		o.t.Errorf("oracle: shard %d applied LSN %d after %d — lost/duplicated/reordered record", shard, lsn, last)
	}
	o.last[shard] = lsn
}

func (o *lsnOracle) snapshots() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.snapJumps
}

// TestE2EPrimaryFollowerOverTCP is the end-to-end path: a follower started
// from empty against a primary with a prior checkpoint (so part of the
// history only exists as a snapshot) converges, serves reads, honors
// read-your-writes barriers, and rides out a primary outage.
func TestE2EPrimaryFollowerOverTCP(t *testing.T) {
	dir := t.TempDir()
	engine, url, ph, srv := startPrimaryHost(t, dir, 4, mkBravo)
	for k := uint64(0); k < 128; k++ {
		engine.Put(k, kvs.EncodeValue(k))
	}
	engine.Delete(7)
	if err := engine.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(128); k < 160; k++ {
		engine.PutTTL(k, kvs.EncodeValue(k), time.Hour)
	}

	oracle := newLSNOracle(t)
	f := openFollower(t, url, func(c *Config) { c.OnApply = oracle.hook })
	if f.NumShards() != 4 {
		t.Fatalf("follower sized %d shards, want 4", f.NumShards())
	}
	if err := f.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, engine, f.Engine(), "bootstrap")
	if oracle.snapshots() == 0 {
		t.Fatal("a follower behind a checkpoint must have bootstrapped via snapshot frames")
	}

	// Read-your-writes: the primary's commit LSN is the follower barrier.
	engine.Put(500, []byte("fresh"))
	shard := engine.ShardOf(500)
	token := engine.ShardLSN(shard)
	if !f.WaitMinLSN(shard, token, 5*time.Second) {
		t.Fatalf("follower never reached LSN %d on shard %d", token, shard)
	}
	if v, ok := f.Engine().Get(500); !ok || string(v) != "fresh" {
		t.Fatalf("read-your-writes Get = %q, %v", v, ok)
	}

	// Primary outage: the follower retries through it and catches up when
	// the primary returns — with writes that happened while it was gone.
	// Taking the host down only affects new requests; the established
	// streams die with their connections.
	ph.set(nil, nil)
	srv.CloseClientConnections()
	engine.Put(600, []byte("written-during-outage"))
	time.Sleep(30 * time.Millisecond) // let pullers hit the 503 path
	ph.set(engine, nil)
	if err := f.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, engine, f.Engine(), "after outage")
	st := f.Stats()
	if st.Reconnects == 0 {
		t.Fatal("outage did not register as reconnects")
	}
	var recs uint64
	for _, sp := range st.Shards {
		recs += sp.Records
	}
	if recs == 0 {
		t.Fatal("follower stats counted no records")
	}

	// WaitMinLSN beyond anything committed must time out, not hang.
	if f.WaitMinLSN(0, f.AppliedLSN(0)+1000, 50*time.Millisecond) {
		t.Fatal("WaitMinLSN reported an uncommitted LSN as reached")
	}
}

// TestOpenRefusesVolatilePrimary: a primary without a WAL has nothing to
// ship; Open must fail loudly, not follow emptiness.
func TestOpenRefusesVolatilePrimary(t *testing.T) {
	engine, err := kvs.NewSharded(2, mkStd)
	if err != nil {
		t.Fatal(err)
	}
	ph := &primaryHost{}
	ph.set(engine, nil)
	srv := httptest.NewServer(ph)
	defer srv.Close()
	if _, err := Open(Config{Primary: srv.URL}); err == nil {
		t.Fatal("Open against a volatile primary succeeded")
	}
	// And the stream endpoint itself 409s.
	resp, err := http.Get(srv.URL + "/repl/stream?shard=0&from=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("volatile stream status %d, want 409", resp.StatusCode)
	}
}

// TestStreamRejectsBadParams pins the 400s.
func TestStreamRejectsBadParams(t *testing.T) {
	_, url, _ := startPrimary(t, t.TempDir(), 2, mkStd)
	for _, q := range []string{"shard=9&from=1", "shard=-1&from=1", "shard=x&from=1", "shard=0&from=0", "shard=0&from=x"} {
		resp, err := http.Get(url + "/repl/stream?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("stream?%s status %d, want 400", q, resp.StatusCode)
		}
	}
}
