// Package repl replicates the durable sharded KV engine: a primary streams
// its per-shard, LSN-stamped write-ahead log over HTTP to read-only
// followers, which apply it through the engine's ordinary write path into
// volatile replicas serving the same BRAVO-biased read fast paths.
//
// This is the macro version of BRAVO's bet. BRAVO scales reads by letting
// them publish into cheap distributed slots while writers pay a bounded
// revocation tax; a replicated deployment scales reads by fanning them out
// to follower processes while every write serializes through the primary's
// narrow WAL. The stream rides the log the durability layer already
// writes: frames on the wire are the WAL's CRC-framed records, verbatim,
// so the replication encoder/decoder IS the recovery encoder/decoder.
//
// Protocol (per shard; shards replicate independently):
//
//	GET /repl/stream?shard=S&from=L   chunked octet stream of records with
//	                                  LSN >= L, then live tailing. If L was
//	                                  checkpointed out of the log the
//	                                  primary interposes one snapshot frame
//	                                  (full shard state at its LSN) and
//	                                  continues past it.
//	GET /repl/status                  JSON Status: shard count, per-shard
//	                                  applied LSNs, durability posture.
//
// A follower's position is one number per shard: the LSN of the last
// record it applied. Resume is "from = applied+1"; the primary decides
// whether that is a tail read or a snapshot resync. Records apply in LSN
// order, exactly once — the follower skips duplicates (a reconnect replays
// the boundary record) and treats any forward gap as a protocol error that
// forces a reconnect, which self-heals through the snapshot path.
package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/bravolock/bravo/internal/kvs"
)

// DefaultPoll is how often a caught-up stream checks the log for new
// records. A caught-up poll is one generation load plus an empty file
// read, so the interval can be tight; it bounds the idle component of
// replication lag.
//
// The stream polls rather than waking on each commit because the wake
// would land on the writer: a prototype that signalled the stream from
// every commit raised http-cluster's write_p50_us from a median of 40.9 to
// 60.9 µs over 6 alternating 10 s pairs on 2 CPUs (every run slower), with
// ops_per_s and read_p50_us within 5 %. A commit signal is worth retrying
// only if it keeps the wake off the write's critical path on 2 CPUs.
const DefaultPoll = 2 * time.Millisecond

// DefaultChunk bounds the framed bytes per stream write.
const DefaultChunk = 256 << 10

// Status is /repl/status: the primary's replication posture. Followers
// fetch it at Open to size their engine and at runtime to compute lag.
type Status struct {
	Shards     int    `json:"shards"`
	Durable    bool   `json:"durable"`
	SyncPolicy string `json:"sync_policy,omitempty"`
	// LSNs is the applied LSN per shard: what a follower at the same
	// numbers has fully caught up to.
	LSNs []uint64 `json:"lsns"`
	// Stream-side counters, aggregated over all streams ever served.
	ActiveStreams    int64  `json:"active_streams"`
	RecordsShipped   uint64 `json:"records_shipped"`
	SnapshotsShipped uint64 `json:"snapshots_shipped"`
	BytesShipped     uint64 `json:"bytes_shipped"`
}

// Primary serves one durable engine's replication endpoints.
type Primary struct {
	engine *kvs.Sharded

	active    atomic.Int64
	records   atomic.Uint64
	snapshots atomic.Uint64
	bytes     atomic.Uint64
}

// NewPrimary returns the replication server side for engine. The engine
// should be durable (LSNs come from its WAL); a volatile engine's streams
// answer 409 so a misconfigured follower fails loudly, not silently empty.
func NewPrimary(engine *kvs.Sharded) *Primary {
	return &Primary{engine: engine}
}

// Register mounts the replication endpoints on mux.
func (p *Primary) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /repl/stream", p.handleStream)
	mux.HandleFunc("GET /repl/status", p.handleStatus)
}

// Status summarizes the primary's replication posture.
func (p *Primary) Status() Status {
	st := Status{
		Shards:           p.engine.NumShards(),
		Durable:          p.engine.Durable(),
		LSNs:             p.engine.ReplLSNs(),
		ActiveStreams:    p.active.Load(),
		RecordsShipped:   p.records.Load(),
		SnapshotsShipped: p.snapshots.Load(),
		BytesShipped:     p.bytes.Load(),
	}
	if st.Durable {
		st.SyncPolicy = p.engine.SyncPolicy().String()
	}
	if st.LSNs == nil {
		st.LSNs = make([]uint64, st.Shards)
	}
	return st
}

func (p *Primary) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(p.Status())
}

// ParseStream validates a /repl/stream query — shard=S&from=L — against
// the engine: the shard and resume LSN to Stream, or the HTTP status and
// error that refuse the request (409 for a volatile engine, 400 for a bad
// shard or LSN).
func (p *Primary) ParseStream(q url.Values) (shard int, from uint64, status int, err error) {
	if !p.engine.Durable() {
		return 0, 0, http.StatusConflict, errors.New("engine is volatile: replication needs a durable primary (-data-dir)")
	}
	shard, err = strconv.Atoi(q.Get("shard"))
	if err != nil || shard < 0 || shard >= p.engine.NumShards() {
		return 0, 0, http.StatusBadRequest, fmt.Errorf("bad shard %q: want 0..%d", q.Get("shard"), p.engine.NumShards()-1)
	}
	from = 1
	if fs := q.Get("from"); fs != "" {
		if from, err = strconv.ParseUint(fs, 10, 64); err != nil || from == 0 {
			return 0, 0, http.StatusBadRequest, fmt.Errorf("bad from %q: want a positive LSN", fs)
		}
	}
	return shard, from, 0, nil
}

// handleStream is Stream behind net/http.
func (p *Primary) handleStream(w http.ResponseWriter, r *http.Request) {
	shard, from, status, err := p.ParseStream(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Repl-Shards", strconv.Itoa(p.engine.NumShards()))
	var flush func()
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	p.Stream(r.Context(), shard, from, w, flush)
}

// Stream writes one shard's record stream from LSN from to w: catch-up (a
// snapshot frame first if from was checkpointed out of the log), then live
// tail, calling flush (when non-nil) after each write, until ctx ends or a
// write fails. It is transport-neutral: handleStream and kvserv's HTTP
// connection loop each frame it for their own connection.
func (p *Primary) Stream(ctx context.Context, shard int, from uint64, w io.Writer, flush func()) {
	p.active.Add(1)
	defer p.active.Add(-1)
	var idle *time.Timer // one per stream: a caught-up poll allocates nothing
	cur := kvs.ReplCursor{Next: from}
	for {
		before := cur.Next
		frames, err := p.engine.ReplRead(shard, &cur, DefaultChunk)
		if err == kvs.ErrReplSnapshotNeeded {
			frame, lsn, serr := p.engine.ReplSnapshotFrame(shard)
			if serr != nil {
				// Headers may be out already; closing the stream is the
				// only honest signal left.
				return
			}
			if _, werr := w.Write(frame); werr != nil {
				return
			}
			p.snapshots.Add(1)
			p.bytes.Add(uint64(len(frame)))
			cur = kvs.ReplCursor{Next: lsn + 1}
			if flush != nil {
				flush()
			}
			continue
		}
		if err != nil {
			return
		}
		if len(frames) > 0 {
			if _, werr := w.Write(frames); werr != nil {
				return
			}
			p.bytes.Add(uint64(len(frames)))
			p.records.Add(cur.Next - before) // one LSN per shipped record
			if flush != nil {
				flush()
			}
			continue
		}
		// Caught up: wait a poll beat for new records, or for the client
		// to go away.
		if idle == nil {
			idle = time.NewTimer(DefaultPoll)
			defer idle.Stop()
		} else {
			idle.Reset(DefaultPoll)
		}
		select {
		case <-ctx.Done():
			return
		case <-idle.C:
		}
	}
}
