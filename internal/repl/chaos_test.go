package repl

// Chaos certification of the stream: connections killed at every record
// boundary and at arbitrary mid-frame offsets, followers paused/resumed
// and fully restarted, the primary restarted (with recovery and forced
// checkpoint rotation) under an active follower. The invariant throughout
// is the LSN oracle: every applied record continues its shard's sequence
// by exactly one or is a snapshot jump — no lost, duplicated, or
// reordered record — and every scenario ends converged with the primary.

import (
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/xrand"
)

// streamCutter wraps the primary handler and kills each /repl/stream
// response after a byte budget drawn from its schedule; once the schedule
// is exhausted, streams run uncut. Budgets land mid-frame as easily as on
// boundaries — the cut is bytes, not records.
type streamCutter struct {
	inner http.Handler
	mu    sync.Mutex
	cuts  []int64
}

func (c *streamCutter) push(cuts ...int64) {
	c.mu.Lock()
	c.cuts = append(c.cuts, cuts...)
	c.mu.Unlock()
}

func (c *streamCutter) next() (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.cuts) == 0 {
		return 0, false
	}
	n := c.cuts[0]
	c.cuts = c.cuts[1:]
	return n, true
}

func (c *streamCutter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/repl/stream" {
		if budget, ok := c.next(); ok {
			c.inner.ServeHTTP(&cutWriter{ResponseWriter: w, budget: budget}, r)
			return
		}
	}
	c.inner.ServeHTTP(w, r)
}

// cutWriter delivers at most budget bytes, flushes what it truncated to,
// and then aborts the connection — the follower (or its network) dying
// mid-frame, as far as the other side can tell.
type cutWriter struct {
	http.ResponseWriter
	budget int64
}

func (w *cutWriter) Write(p []byte) (int, error) {
	if w.budget <= 0 {
		panic(http.ErrAbortHandler)
	}
	if int64(len(p)) > w.budget {
		w.ResponseWriter.Write(p[:w.budget])
		w.budget = 0
		if f, ok := w.ResponseWriter.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	w.budget -= int64(len(p))
	return w.ResponseWriter.Write(p)
}

func (w *cutWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestChaosStreamCutAtEveryBoundaryAndMidFrame kills the follower's
// stream at every record boundary of the primary's log and at random
// mid-frame offsets. Each trial is a fresh follower whose first stream
// dies at the cut; it must resume with no lost/duplicated/reordered
// record (the oracle) and converge exactly.
func TestChaosStreamCutAtEveryBoundaryAndMidFrame(t *testing.T) {
	nOps, nRandom := 24, 14
	if testing.Short() {
		nOps, nRandom = 10, 5
	}
	dir := t.TempDir()
	engine, err := kvs.OpenSharded(dir, 1, mkBravo, kvs.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { engine.Close() })
	rng := xrand.NewXorShift64(0xC4A05)
	for i := 0; i < nOps; i++ {
		switch rng.Intn(4) {
		case 0:
			keys := make([]uint64, 2+rng.Intn(5))
			vals := make([][]byte, len(keys))
			for j := range keys {
				keys[j] = rng.Next() % 64
				vals[j] = kvs.EncodeValue(rng.Next())
			}
			engine.MultiPut(keys, vals)
		case 1:
			engine.Delete(rng.Next() % 64)
		default:
			engine.Put(rng.Next()%64, kvs.EncodeValue(rng.Next()))
		}
	}

	// Frame boundaries from the log itself: the byte offsets at which a
	// kill severs the stream exactly between records.
	var cur kvs.ReplCursor
	stream, err := engine.ReplRead(0, &cur, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	var boundaries []int64
	off := int64(0)
	for rest := stream; len(rest) > 0; {
		_, n, derr := kvs.DecodeReplFrame(rest)
		if derr != nil || n == 0 {
			t.Fatalf("reference stream corrupt at %d: %v", off, derr)
		}
		off += int64(n)
		boundaries = append(boundaries, off)
		rest = rest[n:]
	}
	cuts := append([]int64{0}, boundaries...)
	for i := 0; i < nRandom; i++ {
		cuts = append(cuts, int64(rng.Next()%uint64(len(stream))))
	}

	cutter := &streamCutter{}
	ph := &primaryHost{}
	ph.set(engine, func(h http.Handler) http.Handler { cutter.inner = h; return cutter })
	srv := newChaosServer(t, ph)

	extra := uint64(10_000)
	for _, cut := range cuts {
		cutter.push(cut)
		oracle := newLSNOracle(t)
		f := openFollower(t, srv, func(c *Config) {
			c.RetryInterval = 2 * time.Millisecond
			c.OnApply = oracle.hook
			// No keep-alive: the stream GET must not reuse the status fetch's
			// connection, or net/http transparently retries a GET that died
			// before its first byte (the cut at 0) and the follower never
			// sees the cut.
			c.Client = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
		})
		if err := f.WaitCaughtUp(10 * time.Second); err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		// A cut at (or past) the stream's current end only fires when more
		// bytes flow: push one more record through the wire.
		engine.Put(extra, kvs.EncodeValue(extra))
		extra++
		deadline := time.Now().Add(10 * time.Second)
		for f.Stats().Reconnects == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if f.Stats().Reconnects == 0 {
			t.Fatalf("cut at %d never severed the stream", cut)
		}
		if err := f.WaitCaughtUp(10 * time.Second); err != nil {
			t.Fatalf("cut at %d, after reconnect: %v", cut, err)
		}
		requireConverged(t, engine, f.Engine(), "after cut")
		f.Close()
	}
}

// newChaosServer serves ph on a real TCP socket and returns the base URL.
func newChaosServer(t *testing.T, ph *primaryHost) string {
	t.Helper()
	srv := newTestServer(ph)
	t.Cleanup(srv.close)
	return srv.url
}

// TestChaosFollowerPauseResumeAndRestart exercises both recovery shapes:
// Stop/Start keeps the replica and resumes incrementally (no snapshot
// when the log still holds the gap), while Close plus a fresh Open starts
// empty and must bootstrap — after a checkpoint, necessarily via a
// snapshot frame. Writes keep landing throughout.
func TestChaosFollowerPauseResumeAndRestart(t *testing.T) {
	engine, url, _ := startPrimary(t, t.TempDir(), 2, mkBravo)
	for k := uint64(0); k < 64; k++ {
		engine.Put(k, kvs.EncodeValue(k))
	}
	oracle := newLSNOracle(t)
	f := openFollower(t, url, func(c *Config) { c.OnApply = oracle.hook })
	if err := f.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Pause, write through the pause, resume: incremental, no snapshot.
	f.Stop()
	before := oracle.snapshots()
	for k := uint64(64); k < 96; k++ {
		engine.Put(k, kvs.EncodeValue(k))
	}
	frozen := f.Engine().Len() // the replica serves, frozen, while paused
	if frozen == 0 {
		t.Fatal("paused replica lost its state")
	}
	f.Start()
	if err := f.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, engine, f.Engine(), "after resume")
	if oracle.snapshots() != before {
		t.Fatal("an incremental resume used a snapshot: the log still held the gap")
	}

	// Full restart after a checkpoint: fresh follower, empty engine, must
	// resnapshot.
	f.Close()
	if err := engine.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	engine.Put(1000, []byte("post-checkpoint"))
	oracle2 := newLSNOracle(t)
	f2 := openFollower(t, url, func(c *Config) { c.OnApply = oracle2.hook })
	if err := f2.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, engine, f2.Engine(), "after restart")
	if oracle2.snapshots() == 0 {
		t.Fatal("a restarted follower behind a checkpoint must resnapshot")
	}
}

// TestChaosPrimaryRestartUnderActiveFollower crashes and recovers the
// primary (no Close — recovery replays its WAL), forces checkpoint
// rotation on the way back up, and keeps writing, all under a live
// follower. The follower must ride through every cycle: reconnect,
// resnapshot or resume as the log dictates, and end converged.
func TestChaosPrimaryRestartUnderActiveFollower(t *testing.T) {
	cycles := 3
	if testing.Short() {
		cycles = 2
	}
	dir := t.TempDir()
	engine, err := kvs.OpenSharded(dir, 2, mkBravo, kvs.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	ph := &primaryHost{}
	ph.set(engine, nil)
	srv := newTestServer(ph)
	t.Cleanup(srv.close)

	rng := xrand.NewXorShift64(0xFA11)
	write := func(n int) {
		for i := 0; i < n; i++ {
			engine.Put(rng.Next()%128, kvs.EncodeValue(rng.Next()))
		}
	}
	write(64)
	oracle := newLSNOracle(t)
	f := openFollower(t, srv.url, func(c *Config) { c.OnApply = oracle.hook })
	if err := f.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	for cycle := 0; cycle < cycles; cycle++ {
		write(48)
		// Crash: host down, connections severed, engine abandoned without
		// Close (its records are on disk; recovery must find them).
		ph.set(nil, nil)
		srv.closeConns()
		write(8) // writes that landed before the crash finished killing it
		reopened, err := kvs.OpenSharded(dir, 2, mkBravo, kvs.SyncNone)
		if err != nil {
			t.Fatalf("cycle %d: primary recovery: %v", cycle, err)
		}
		engine = reopened
		// Forced rotation on the way up: followers whose position was
		// pruned must resnapshot; others resume.
		if err := engine.Checkpoint(); err != nil {
			t.Fatalf("cycle %d: checkpoint: %v", cycle, err)
		}
		ph.set(engine, nil)
		write(32)
		if err := f.WaitCaughtUp(15 * time.Second); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		requireConverged(t, engine, f.Engine(), "after primary restart")
	}
	t.Cleanup(func() { engine.Close() })

	// A checkpoint under a live, caught-up stream (rotation with no
	// restart) must also pass unnoticed.
	write(16)
	if err := engine.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	write(16)
	if err := f.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, engine, f.Engine(), "after live checkpoint")
}
