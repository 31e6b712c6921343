package repl

// Shared harness plus the end-to-end test: a durable primary behind a real
// TCP socket, followers tailing it, reads converging. The model-based and
// chaos suites build on the same host.

import (
	"bytes"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/frame"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/locks/pfq"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/wire"
)

func mkStd() rwl.RWLock   { return new(stdrw.Lock) }
func mkBravo() rwl.RWLock { return core.New(new(pfq.Lock)) }

// primaryHost serves a swappable engine's replication ops on one TCP
// address — the "machine" a primary process runs on, which chaos tests can
// take down and bring back with a recovered engine. While down it hangs up
// on every connection, which followers treat like any other outage: retry.
type primaryHost struct {
	addr string
	mu   sync.Mutex
	p    *Primary
}

// newPrimaryHost serves a host on a loopback listener, passed through wrap
// when non-nil (the chaos tests' stream cutter).
func newPrimaryHost(t *testing.T, wrap func(net.Listener) net.Listener) *primaryHost {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		l = wrap(l)
	}
	ph := &primaryHost{addr: l.Addr().String()}
	go func() {
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			ph.mu.Lock()
			if p := ph.p; p != nil {
				go p.serve(nc)
			} else {
				nc.Close()
			}
			ph.mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		ph.set(nil)
	})
	return ph
}

// set installs engine as the served primary; nil takes the host down. The
// primary it replaces is closed, which severs its established streams.
func (ph *primaryHost) set(engine *kvs.Sharded) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if ph.p != nil {
		ph.p.Close()
		ph.p = nil
	}
	if engine != nil {
		ph.p = NewPrimary(engine)
	}
}

// startPrimary opens a durable engine in dir and serves its replication
// ops over a real TCP socket, returning the engine, the address, and the
// host for later swaps.
func startPrimary(t *testing.T, dir string, shards int, mk rwl.Factory) (*kvs.Sharded, string, *primaryHost) {
	t.Helper()
	engine, err := kvs.OpenSharded(dir, shards, mk, kvs.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { engine.Close() })
	ph := newPrimaryHost(t, nil)
	ph.set(engine)
	return engine, ph.addr, ph
}

// replDo sends req to the primary at addr and returns its answer.
func replDo(t *testing.T, addr string, req wire.Request) wire.Response {
	t.Helper()
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do(&req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
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
	engine, url, ph := startPrimary(t, dir, 4, mkBravo)
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
	// Taking the host down closes its primary, which severs the
	// established streams.
	ph.set(nil)
	engine.Put(600, []byte("written-during-outage"))
	time.Sleep(30 * time.Millisecond) // let pullers hit the hang-up path
	ph.set(engine)
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
	ph := newPrimaryHost(t, nil)
	ph.set(engine)
	if _, err := Open(Config{Primary: ph.addr}); err == nil {
		t.Fatal("Open against a volatile primary succeeded")
	}
	// And the stream op itself 409s.
	resp := replDo(t, ph.addr, wire.Request{Op: wire.OpReplStream, Key: 0, From: 1})
	if resp.Status != wire.StatusConflict || !strings.Contains(resp.Msg, "volatile") {
		t.Fatalf("volatile stream: %v %q, want conflict naming the volatile engine", resp.Status, resp.Msg)
	}
}

// TestOpenFailsFastOnSilentAddress: an address that reads the status
// request and never answers (kvserv's HTTP -addr waits 10 s for a request
// line) fails Open within statusTimeout, naming the address and -wire-addr.
func TestOpenFailsFastOnSilentAddress(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for nc, err := l.Accept(); err == nil; nc, err = l.Accept() {
			defer nc.Close()
			go io.Copy(io.Discard, nc)
		}
	}()
	start := time.Now()
	_, err = Open(Config{Primary: l.Addr().String()})
	if took := time.Since(start); err == nil || took > statusTimeout+time.Second ||
		!strings.Contains(err.Error(), l.Addr().String()) || !strings.Contains(err.Error(), "-wire-addr") {
		t.Fatalf("Open against a silent address: %v after %v, want an error naming it and -wire-addr within %v", err, took, statusTimeout)
	}
}

// TestStreamRejectsBadParams pins the 400s: a shard out of range (9, and
// the -1 a signed parse would take), LSN 0, and a body that does not decode.
func TestStreamRejectsBadParams(t *testing.T) {
	_, addr, _ := startPrimary(t, t.TempDir(), 2, mkStd)
	for _, tc := range []struct {
		req  wire.Request
		want string
	}{
		{wire.Request{Op: wire.OpReplStream, Key: 9, From: 1}, "bad shard 9"},
		{wire.Request{Op: wire.OpReplStream, Key: ^uint64(0), From: 1}, "bad shard"},
		{wire.Request{Op: wire.OpReplStream, Key: 0, From: 0}, "bad from 0"},
	} {
		if resp := replDo(t, addr, tc.req); resp.Status != wire.StatusBadRequest || !strings.Contains(resp.Msg, tc.want) {
			t.Fatalf("stream shard=%d from=%d: %v %q, want bad request %q", tc.req.Key, tc.req.From, resp.Status, resp.Msg, tc.want)
		}
	}
	// A stream request cut after its shard: the header parses, the body not.
	short := wire.AppendRequest(nil, &wire.Request{Op: wire.OpReplStream, ID: 1, Key: 0, From: 1})
	short = frame.Append(nil, short[frame.HeaderSize:len(short)-8])
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.Write(short)
	payload, err := wire.NewStreamDecoder(nc, 0).Next()
	if err != nil {
		t.Fatal(err)
	}
	if resp, ok := wire.DecodeResponse(payload); !ok || resp.Status != wire.StatusBadRequest || resp.Msg != "malformed request body" {
		t.Fatalf("malformed stream request: %+v (decoded %v), want bad request", resp, ok)
	}
}
