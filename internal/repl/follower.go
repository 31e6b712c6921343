package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bravolock/bravo/internal/frame"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/wire"
)

// DefaultRetryInterval paces reconnects after a stream drops.
const DefaultRetryInterval = 100 * time.Millisecond

// statusTimeout bounds PrimaryStatus: a primary answers at once, and an HTTP
// -addr, which waits 10 s for a request line, must not stall Open.
const statusTimeout = 2 * time.Second

// Config configures a Follower.
type Config struct {
	// Primary is the primary's wire address (e.g. "10.0.0.1:7071"): a
	// kvserv started with -data-dir and -wire-addr, a cluster member's
	// Addr, or anything serving a Primary's ops.
	Primary string
	// MkLock builds the follower engine's per-shard locks; nil means
	// sync.RWMutex. A BRAVO factory gives the follower the same biased
	// read fast path the primary serves with.
	MkLock rwl.Factory
	// RetryInterval paces reconnects; 0 means DefaultRetryInterval.
	RetryInterval time.Duration
	// OnApply, when set, is called synchronously by the shard's puller
	// after each record (or snapshot frame) is applied and its LSN
	// published — the hook the model-based and chaos tests observe exact
	// intermediate states through.
	OnApply func(shard int, lsn uint64, snapshot bool)
	// Paused makes Open return without starting the pullers; the caller
	// attaches what it needs to the Follower and calls Start.
	Paused bool
}

// ShardProgress is one shard's replication position on a follower.
type ShardProgress struct {
	AppliedLSN uint64 `json:"applied_lsn"`
	Records    uint64 `json:"records"`
	Snapshots  uint64 `json:"snapshots"`
}

// Stats is a point-in-time summary of a follower's replication progress.
type Stats struct {
	Primary    string          `json:"primary"`
	Reconnects uint64          `json:"reconnects"`
	Shards     []ShardProgress `json:"shards"`
}

// Follower tails a primary's per-shard WAL streams into a volatile engine
// and serves reads from it. Open starts the pullers; reads go straight to
// Engine (or through a kvserv follower server). The follower's position
// is AppliedLSN per shard; WaitMinLSN turns a primary commit LSN into a
// read-your-writes barrier.
type Follower struct {
	cfg    Config
	engine *kvs.Sharded
	shards int

	applied    []atomic.Uint64
	records    []atomic.Uint64
	snapshots  []atomic.Uint64
	reconnects atomic.Uint64

	// notify is closed and replaced on every applied-LSN advance; waiters
	// re-check and re-arm (WaitMinLSN).
	notifyMu sync.Mutex
	notify   chan struct{}

	runMu  sync.Mutex
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Open connects to the primary, sizes a volatile engine to its shard
// count, and starts one puller per shard. Each puller bootstraps through
// the stream itself: a fresh follower asks for LSN 1 and the primary
// decides between full history and a snapshot frame.
func Open(cfg Config) (*Follower, error) {
	f := &Follower{cfg: cfg, notify: make(chan struct{})}
	if cfg.Primary == "" {
		return nil, errors.New("repl: Config.Primary is required")
	}
	if f.cfg.RetryInterval <= 0 {
		f.cfg.RetryInterval = DefaultRetryInterval
	}
	mk := cfg.MkLock
	if mk == nil {
		mk = func() rwl.RWLock { return new(stdrw.Lock) }
	}
	st, err := f.PrimaryStatus()
	if err != nil {
		return nil, fmt.Errorf("repl: primary status: %w", err)
	}
	if !st.Durable {
		return nil, errors.New("repl: primary is volatile — it has no WAL to ship (start it with -data-dir)")
	}
	engine, err := kvs.NewSharded(st.Shards, mk)
	if err != nil {
		return nil, fmt.Errorf("repl: building follower engine: %w", err)
	}
	f.engine = engine
	f.shards = st.Shards
	f.applied = make([]atomic.Uint64, st.Shards)
	f.records = make([]atomic.Uint64, st.Shards)
	f.snapshots = make([]atomic.Uint64, st.Shards)
	if !cfg.Paused {
		f.Start()
	}
	return f, nil
}

// Engine returns the follower's read-only engine. Callers read from it
// (Get/GetH/MultiGet/Range/Stats); writing to it would diverge the replica
// and is the caller's bug.
func (f *Follower) Engine() *kvs.Sharded { return f.engine }

// Primary returns the primary's wire address.
func (f *Follower) Primary() string { return f.cfg.Primary }

// NumShards returns the replicated shard count.
func (f *Follower) NumShards() int { return f.shards }

// AppliedLSN returns the LSN of the last record applied to shard i.
func (f *Follower) AppliedLSN(i int) uint64 { return f.applied[i].Load() }

// AppliedLSNs returns every shard's applied LSN.
func (f *Follower) AppliedLSNs() []uint64 {
	out := make([]uint64, f.shards)
	for i := range out {
		out[i] = f.applied[i].Load()
	}
	return out
}

// Stats summarizes the follower's progress.
func (f *Follower) Stats() Stats {
	st := Stats{Primary: f.cfg.Primary, Reconnects: f.reconnects.Load(), Shards: make([]ShardProgress, f.shards)}
	for i := range st.Shards {
		st.Shards[i] = ShardProgress{
			AppliedLSN: f.applied[i].Load(),
			Records:    f.records[i].Load(),
			Snapshots:  f.snapshots[i].Load(),
		}
	}
	return st
}

// PrimaryStatus fetches the primary's Status — the other half of a lag
// computation (primary LSN minus AppliedLSN, per shard).
func (f *Follower) PrimaryStatus() (Status, error) {
	var st Status
	nc, err := net.DialTimeout("tcp", f.cfg.Primary, statusTimeout)
	if err != nil {
		return st, err
	}
	defer nc.Close()
	if err := nc.SetDeadline(time.Now().Add(statusTimeout)); err != nil {
		return st, err
	}
	_, resp, err := f.request(nc, wire.Request{Op: wire.OpReplStatus})
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, os.ErrDeadlineExceeded) {
		err = fmt.Errorf("no wire reply from %s (%w): is it the primary's -wire-addr?", f.cfg.Primary, err)
	}
	if err == nil {
		err = json.Unmarshal(resp.Stats, &st)
	}
	if err == nil && st.Shards <= 0 {
		err = fmt.Errorf("repl: primary reports %d shards", st.Shards)
	}
	return st, err
}

// request sends req on nc and reads the primary's answer, returning it and
// the decoder that read it, which holds whatever followed. A refusal is an
// error naming the status and the primary's reason.
func (f *Follower) request(nc net.Conn, req wire.Request) (*wire.StreamDecoder, wire.Response, error) {
	// A snapshot frame carries a whole shard: the cap is the codec's.
	dec := wire.NewStreamDecoder(nc, frame.HeaderSize+frame.MaxPayload)
	_, err := nc.Write(wire.AppendRequest(nil, &req))
	var payload []byte
	if err == nil {
		payload, err = dec.Next()
	}
	resp, ok := wire.DecodeResponse(payload)
	switch {
	case err != nil:
	case !ok:
		err = fmt.Errorf("repl: undecodable %v reply from %s", req.Op, f.cfg.Primary)
	case resp.Status != wire.StatusOK:
		err = fmt.Errorf("repl: %v %s from %s: %s", req.Op, resp.Status, f.cfg.Primary, resp.Msg)
	}
	return dec, resp, err
}

// Start launches the pullers if they are not running. Open calls it; after
// a Stop, Start resumes each shard from its applied LSN (the state and
// position survive the pause — "resume", as opposed to a fresh Open's
// snapshot bootstrap).
func (f *Follower) Start() {
	f.runMu.Lock()
	defer f.runMu.Unlock()
	if f.cancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < f.shards; i++ {
		f.wg.Add(1)
		go f.run(ctx, i)
	}
}

// Stop halts the pullers, keeping the engine and the applied positions.
// Reads keep working against the frozen replica; Start resumes tailing.
func (f *Follower) Stop() {
	f.runMu.Lock()
	defer f.runMu.Unlock()
	if f.cancel == nil {
		return
	}
	f.cancel()
	f.cancel = nil
	f.wg.Wait()
}

// Close stops the pullers. The engine remains readable (a decommissioned
// replica is still a consistent, if stale, cache).
func (f *Follower) Close() error {
	f.Stop()
	return nil
}

// WaitMinLSN blocks until shard's applied LSN reaches lsn, or timeout
// elapses; it reports whether the barrier was met. This is the follower
// half of a read-your-writes token: the client carries the primary's
// commit LSN, the follower holds the read until it is covered.
func (f *Follower) WaitMinLSN(shard int, lsn uint64, timeout time.Duration) bool {
	if shard < 0 || shard >= f.shards {
		return false
	}
	deadline := time.Now().Add(timeout)
	for {
		if f.applied[shard].Load() >= lsn {
			return true
		}
		f.notifyMu.Lock()
		ch := f.notify
		f.notifyMu.Unlock()
		if f.applied[shard].Load() >= lsn {
			return true
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return f.applied[shard].Load() >= lsn
		}
		t := time.NewTimer(wait)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			return f.applied[shard].Load() >= lsn
		}
	}
}

// WaitCaughtUp fetches the primary's current LSNs and blocks until every
// shard has applied at least that much (a quiescence barrier for tests and
// orchestration, not a guarantee the primary stopped writing).
func (f *Follower) WaitCaughtUp(timeout time.Duration) error {
	st, err := f.PrimaryStatus()
	if err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	for i, want := range st.LSNs {
		if i >= f.shards {
			break
		}
		if !f.WaitMinLSN(i, want, time.Until(deadline)) {
			return fmt.Errorf("repl: shard %d stuck at LSN %d, primary at %d", i, f.applied[i].Load(), want)
		}
	}
	return nil
}

// run is one shard's puller: stream, apply, reconnect, forever.
func (f *Follower) run(ctx context.Context, shard int) {
	defer f.wg.Done()
	for ctx.Err() == nil {
		f.streamOnce(ctx, shard) // every exit from a live stream is a reconnect
		if ctx.Err() != nil {
			return
		}
		f.reconnects.Add(1)
		select {
		case <-ctx.Done():
			return
		case <-time.After(f.cfg.RetryInterval):
		}
	}
}

// streamOnce opens one stream from the shard's current position and
// applies it until it breaks. Any return is followed by a reconnect from
// applied+1, so the only invariant that matters here is exactly-once
// apply in LSN order — duplicates skipped, gaps refused.
func (f *Follower) streamOnce(ctx context.Context, shard int) error {
	nc, err := new(net.Dialer).DialContext(ctx, "tcp", f.cfg.Primary)
	if err != nil {
		return err
	}
	defer nc.Close()
	defer context.AfterFunc(ctx, func() { nc.Close() })() // Stop cuts the stream
	req := wire.Request{Op: wire.OpReplStream, Key: uint64(shard), From: f.applied[shard].Load() + 1}
	dec, _, err := f.request(nc, req)
	if err != nil {
		return err
	}
	return f.follow(shard, dec)
}

// follow decodes shard's record frames from dec and applies each in order
// until the stream breaks, returning why: a corrupt frame or payload, a
// gap, or the reader's error.
func (f *Follower) follow(shard int, dec *wire.StreamDecoder) error {
	for {
		payload, err := dec.Next()
		if err != nil {
			return err // io.EOF when the primary closed the stream cleanly
		}
		rec, err := kvs.DecodeReplPayload(payload)
		if err != nil {
			return err
		}
		if err := f.apply(shard, rec); err != nil {
			return err
		}
	}
}

// apply applies one decoded record in-order: snapshot frames replace the
// shard at their LSN, incremental records must continue the sequence.
// Duplicates (the boundary record a reconnect replays) are skipped.
func (f *Follower) apply(shard int, rec kvs.ReplRecord) error {
	applied := f.applied[shard].Load()
	if !rec.Snapshot {
		if rec.LSN <= applied {
			return nil
		}
		if rec.LSN != applied+1 {
			return fmt.Errorf("repl: stream gap on shard %d: LSN %d after %d", shard, rec.LSN, applied)
		}
	}
	if err := f.engine.ApplyReplRecord(shard, rec); err != nil {
		return err
	}
	f.applied[shard].Store(rec.LSN)
	f.records[shard].Add(1)
	if rec.Snapshot {
		f.snapshots[shard].Add(1)
	}
	f.notifyMu.Lock()
	close(f.notify)
	f.notify = make(chan struct{})
	f.notifyMu.Unlock()
	if f.cfg.OnApply != nil {
		f.cfg.OnApply(shard, rec.LSN, rec.Snapshot)
	}
	return nil
}
