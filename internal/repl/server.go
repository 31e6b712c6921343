// Package repl replicates the durable sharded KV engine: a primary streams
// its per-shard, LSN-stamped write-ahead log over the wire protocol to
// read-only followers, which apply it through the engine's ordinary write
// path into volatile replicas serving the same BRAVO-biased read fast paths.
//
// This is the macro version of BRAVO's bet. BRAVO scales reads by letting
// them publish into cheap distributed slots while writers pay a bounded
// revocation tax; a replicated deployment scales reads by fanning them out
// to follower processes while every write serializes through the primary's
// narrow WAL. The stream rides the log the durability layer already
// writes: frames on the wire are the WAL's CRC-framed records, verbatim,
// so the replication encoder/decoder IS the recovery encoder/decoder.
//
// Protocol: two internal/wire ops, one per connection. REPL_STATUS answers
// Status as JSON. REPL_STREAM (shard, from=L) answers OK, then writes the
// shard's record frames with LSN >= L and tails the log live; if L was
// checkpointed out of the log, one snapshot frame (full shard state at its
// LSN) comes first.
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
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/wire"
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

// Status is REPL_STATUS's answer: the primary's replication posture. Followers
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

// Primary serves one durable engine's replication ops.
type Primary struct {
	engine *kvs.Sharded
	ctx    context.Context // done once Close runs
	close  context.CancelFunc

	active    atomic.Int64
	records   atomic.Uint64
	snapshots atomic.Uint64
	bytes     atomic.Uint64
}

// NewPrimary returns the replication server side for engine. The engine
// should be durable (LSNs come from its WAL); a volatile engine's streams
// answer 409 so a misconfigured follower fails loudly, not silently empty.
func NewPrimary(engine *kvs.Sharded) *Primary {
	p := &Primary{engine: engine}
	p.ctx, p.close = context.WithCancel(context.Background())
	return p
}

// Close stops Serve's listeners and cuts every connection ServeConn is
// serving. It leaves the engine open.
func (p *Primary) Close() { p.close() }

// Serve accepts connections on l until Close, reading one replication
// request off each and answering it with ServeConn on its own goroutine.
// It returns nil after Close, else the Accept error that stopped it.
func (p *Primary) Serve(l net.Listener) error {
	defer context.AfterFunc(p.ctx, func() { l.Close() })()
	for {
		nc, err := l.Accept()
		switch ne, _ := err.(net.Error); {
		case err == nil:
			go p.serve(nc)
		case p.ctx.Err() != nil:
			return nil
		case ne != nil && ne.Temporary():
			time.Sleep(5 * time.Millisecond) // out of file descriptors, say
		default:
			return err
		}
	}
}

// serve reads one request off nc and answers it: ServeConn for a request
// that decodes, a 400 for a malformed one whose header parses.
func (p *Primary) serve(nc net.Conn) {
	defer nc.Close()
	defer context.AfterFunc(p.ctx, func() { nc.Close() })() // Close cuts it
	payload, _ := wire.NewStreamDecoder(nc, 1<<10).Next()   // requests are tiny
	if req, ok := wire.DecodeRequest(payload); ok {
		p.ServeConn(nc, req)
	} else if op, id, ok := wire.RequestHeader(payload); ok {
		nc.Write(wire.AppendResponse(nil, &wire.Response{Op: op, ID: id, Status: wire.StatusBadRequest, Msg: "malformed request body"}))
	}
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

// ServeConn answers req, a REPL_STATUS or REPL_STREAM request read off nc,
// and closes nc. A status is one response. A stream is an OK response and
// then the shard's frames (Stream) until the follower hangs up or Close
// runs; a refused one is a 409 for a volatile engine, or a 400 for a bad
// shard or LSN, each with its reason in Msg.
func (p *Primary) ServeConn(nc net.Conn, req wire.Request) {
	defer nc.Close()
	resp := wire.Response{Op: req.Op, ID: req.ID}
	switch {
	case req.Op == wire.OpReplStatus:
		resp.Stats, _ = json.Marshal(p.Status()) // cannot fail on Status
	case req.Op != wire.OpReplStream:
		resp.Status, resp.Msg = wire.StatusUnsupported, req.Op.String()+" is not a replication op"
	case !p.engine.Durable():
		resp.Status, resp.Msg = wire.StatusConflict, "engine is volatile: replication needs a durable primary (-data-dir)"
	case req.Key >= uint64(p.engine.NumShards()):
		resp.Status, resp.Msg = wire.StatusBadRequest, fmt.Sprintf("bad shard %d: want 0..%d", req.Key, p.engine.NumShards()-1)
	case req.From == 0:
		resp.Status, resp.Msg = wire.StatusBadRequest, "bad from 0: want a positive LSN"
	}
	if _, err := nc.Write(wire.AppendResponse(nil, &resp)); err != nil || req.Op != wire.OpReplStream || resp.Status != wire.StatusOK {
		return
	}
	// Nothing more is read from a stream's connection, so a read that
	// returns is the follower leaving (or a Close cutting the socket).
	ctx, cancel := context.WithCancel(p.ctx)
	defer cancel()
	go func() { io.Copy(io.Discard, nc); cancel() }()
	p.Stream(ctx, int(req.Key), req.From, nc)
}

// Stream writes one shard's record stream from LSN from to w: catch-up (a
// snapshot frame first if from was checkpointed out of the log), then live
// tail, until ctx ends or a write fails.
func (p *Primary) Stream(ctx context.Context, shard int, from uint64, w io.Writer) {
	p.active.Add(1)
	defer p.active.Add(-1)
	var idle *time.Timer // one per stream: a caught-up poll allocates nothing
	cur := kvs.ReplCursor{Next: from}
	for {
		before := cur.Next
		frames, err := p.engine.ReplRead(shard, &cur, 256<<10) // bytes per write
		snapshot := err == kvs.ErrReplSnapshotNeeded
		if snapshot {
			var lsn uint64
			frames, lsn, err = p.engine.ReplSnapshotFrame(shard)
			cur = kvs.ReplCursor{Next: lsn + 1}
		}
		if err != nil {
			return // the OK is out: closing is the only honest signal left
		}
		if len(frames) > 0 {
			if _, err := w.Write(frames); err != nil {
				return
			}
			p.bytes.Add(uint64(len(frames)))
			if snapshot {
				p.snapshots.Add(1)
			} else {
				p.records.Add(cur.Next - before) // one LSN per shipped record
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
