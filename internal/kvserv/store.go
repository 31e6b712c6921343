package kvserv

import (
	"fmt"
	"time"

	"github.com/bravolock/bravo/internal/cluster"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/repl"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/wire"
)

// store is what the executor needs from whatever holds the data: the method
// set *cluster.Cluster already has, so the cluster satisfies it as is, and
// engineStore is the one implementation written for it. Both map a request
// onto their engine through one function per direction, cluster.ApplyRead
// and cluster.ApplyWrite.
//
// Read answers a GET or MGET into resp: a GET's value copied into the buffer
// resp.Value carries, an MGET's values in resp.Values. It checks the read's
// (MinLSN, Epoch) token itself, against every shard the read touches, so no
// caller can separate a token from the read it guards: a token the store
// cannot honor is a *cluster.TokenError, and the read does not run.
//
// Write applies a write request (PUT, DELETE, MPUT, MDELETE, CAS, TXN) and
// answers it into resp: its result, and its read-your-writes tokens appended
// to resp.LSNs, one (epoch, shard, lsn) per shard touched, read after the
// write applied. A store with no log (a volatile engine) appends none. An
// error is the store refusing the write (cluster.ErrFenced mid-failover) or
// rejecting its shape (transaction key set empty, too large, or spanning
// partitions).
type store interface {
	Read(h *rwl.Reader, req *wire.Request, resp *wire.Response) error
	Write(req *wire.Request, resp *wire.Response) error
	Reap(budget int) int
	Checkpoint() error

	// Writable is nil when the store takes writes at all; a read-only
	// replica answers why not. The executor asks before every mutating op,
	// so Write never runs on a store that said no.
	Writable() error
}

// statusError is a failure the serving layer itself decided, carrying its
// status: an oversize value, a write to a follower, a checkpoint of a
// volatile engine.
type statusError struct {
	status wire.Status
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// engineStore is the store over one engine: a primary's (durable or
// volatile), or — follower set — a repl.Follower's replica, which refuses
// writes and waits on replication to cover a read token. Tokens carry epoch
// 0: one engine has no fencing history.
type engineStore struct {
	e        *kvs.Sharded
	follower *repl.Follower // non-nil: e is its read-only replica
	primary  *repl.Primary  // non-nil: e is durable and streams its WAL
	wait     time.Duration  // a follower read's bound on waiting for a token
}

// Read reads through cluster.ApplyRead, checking a token against the
// engine first. The epoch is ignored (one engine has one history). A
// follower waits up to s.wait overall for replication to cover the LSN; a
// durable primary's position always covers the tokens it handed out, so a
// lagging one there means a client confused about whom it wrote to. The
// check needs no lock held through the read: one engine's LSNs only grow.
func (s *engineStore) Read(h *rwl.Reader, req *wire.Request, resp *wire.Response) error {
	if req.MinLSN != 0 && s.follower == nil && !s.e.Durable() {
		return &cluster.TokenError{Msg: "min_lsn on a volatile server: it has no LSNs"}
	}
	var deadline time.Time
	return cluster.ApplyRead(s.e, h, req, resp, func(_, lsn uint64, sh int) *cluster.TokenError {
		if s.follower == nil {
			if have := s.e.ShardLSN(sh); have < lsn {
				return &cluster.TokenError{Conflict: true, Msg: fmt.Sprintf(
					"shard %d at LSN %d, token says %d: this primary never issued it", sh, have, lsn)}
			}
			return nil
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(s.wait)
		}
		if !s.follower.WaitMinLSN(sh, lsn, time.Until(deadline)) {
			return &cluster.TokenError{Conflict: true, Msg: fmt.Sprintf(
				"replica shard %d at LSN %d, need %d: retry, or read the primary", sh, s.follower.AppliedLSN(sh), lsn)}
		}
		return nil
	})
}

// Write applies req as the engine of partition 0 at epoch 0.
func (s *engineStore) Write(req *wire.Request, resp *wire.Response) error {
	return cluster.ApplyWrite(s.e, 0, 0, req, resp)
}

func (s *engineStore) Reap(budget int) int { return s.e.Reap(budget) }

// Checkpoint on a volatile engine is a conflict, not a failure: the operator
// asked for durability the server was not started with.
func (s *engineStore) Checkpoint() error {
	if !s.e.Durable() {
		return &statusError{wire.StatusConflict, "engine is volatile: start kvserv with -data-dir"}
	}
	return s.e.Checkpoint()
}

// Writable names the primary, so a misrouted client can fix itself.
func (s *engineStore) Writable() error {
	if s.follower == nil {
		return nil
	}
	return &statusError{wire.StatusReadOnly,
		fmt.Sprintf("read-only follower: write to the primary at %s", s.follower.Primary())}
}

// statsResponse is /stats (and wire STATS): per-shard counters plus the
// fold and the durability posture. WALError carries the first WAL failure so
// a monitor can tell "serving but no longer durable" from healthy. Primaries
// include their replication posture under "repl", followers their per-shard
// positions and lag under "follower", cluster servers the topology under
// "cluster".
type statsResponse struct {
	NumShards     int  `json:"num_shards"`
	HandleCapable bool `json:"handle_capable"`
	// SeqReadAttempts is the engine's optimistic read budget: how many
	// lock-free seqlock read attempts a Get makes before falling back to
	// the shard's BRAVO read lock (0 = optimistic path disabled). The
	// per-path outcome counters are seq_reads/seq_retries/seq_fallbacks
	// in the shard stats below.
	SeqReadAttempts int              `json:"seq_read_attempts"`
	Durable         bool             `json:"durable"`
	SyncPolicy      string           `json:"sync_policy,omitempty"`
	WALError        string           `json:"wal_error,omitempty"`
	Total           kvs.ShardStats   `json:"total"`
	Shards          []kvs.ShardStats `json:"shards"`
	Repl            *repl.Status     `json:"repl,omitempty"`
	Follower        *followerStatus  `json:"follower,omitempty"`
	Cluster         *cluster.Status  `json:"cluster,omitempty"`
}

func (s *engineStore) stats() statsResponse {
	st := s.e.Stats()
	resp := statsResponse{
		NumShards:       s.e.NumShards(),
		HandleCapable:   s.e.HandleCapable(),
		SeqReadAttempts: s.e.SeqReadAttempts(),
		Durable:         s.e.Durable(),
		Total:           st.Total(),
		Shards:          st.Shards,
	}
	if resp.Durable {
		resp.SyncPolicy = s.e.SyncPolicy().String()
		if err := s.e.WALError(); err != nil {
			resp.WALError = err.Error()
		}
	}
	if s.primary != nil {
		pst := s.primary.Status()
		resp.Repl = &pst
	}
	if s.follower != nil {
		resp.Follower = followerView(s.follower)
	}
	return resp
}

func clusterStats(c *cluster.Cluster) statsResponse {
	cst := c.Stats()
	resp := statsResponse{
		NumShards: cst.Partitions * cst.ShardsPerPartition,
		Durable:   true, // cluster primaries are always durable
		Cluster:   &cst,
	}
	for _, ps := range cst.Members {
		resp.Total.Add(ps.Total)
	}
	return resp
}

// followerStatus is a follower's replication view: where each shard is,
// and — when the primary answers — how far behind.
type followerStatus struct {
	Primary      string               `json:"primary"`
	Reconnects   uint64               `json:"reconnects"`
	PrimaryError string               `json:"primary_error,omitempty"`
	Shards       []followerShardStats `json:"shards"`
}

type followerShardStats struct {
	repl.ShardProgress
	// PrimaryLSN and Lag (primary minus applied, in records) are present
	// when the primary's status was reachable.
	PrimaryLSN uint64 `json:"primary_lsn,omitempty"`
	Lag        uint64 `json:"lag,omitempty"`
}

// followerView folds the follower's local progress with the primary's live
// LSNs into the lag view. A dead primary degrades to positions-only plus
// the fetch error.
func followerView(f *repl.Follower) *followerStatus {
	fst := f.Stats()
	out := &followerStatus{
		Primary:    fst.Primary,
		Reconnects: fst.Reconnects,
		Shards:     make([]followerShardStats, len(fst.Shards)),
	}
	for i, sp := range fst.Shards {
		out.Shards[i].ShardProgress = sp
	}
	pst, err := f.PrimaryStatus()
	if err != nil {
		out.PrimaryError = err.Error()
		return out
	}
	for i := range out.Shards {
		if i >= len(pst.LSNs) {
			break
		}
		out.Shards[i].PrimaryLSN = pst.LSNs[i]
		if pst.LSNs[i] > out.Shards[i].AppliedLSN {
			out.Shards[i].Lag = pst.LSNs[i] - out.Shards[i].AppliedLSN
		}
	}
	return out
}
