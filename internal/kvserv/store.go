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
// set *cluster.Cluster already had, so the cluster satisfies it as is, and
// engineStore is the one implementation written for it.
//
// Writes return their read-your-writes tokens: one (epoch, shard, lsn) per
// shard touched, read after the write applied. A store with no log (a
// volatile engine) returns none — the zero ShardLSN, whose LSN 0 constrains
// nothing, or a nil slice. Write errors are the store refusing the write
// (cluster.ErrFenced mid-failover) or rejecting its shape (transaction key
// set empty, too large, or spanning partitions).
type store interface {
	Get(h *rwl.Reader, key uint64, buf []byte) ([]byte, bool)
	MultiGet(h *rwl.Reader, keys []uint64) [][]byte
	Put(key uint64, value []byte, ttl time.Duration) (wire.ShardLSN, error)
	PutAsync(key uint64, value []byte) error
	Delete(key uint64) (bool, wire.ShardLSN, error)
	MultiPut(keys []uint64, values [][]byte, ttl time.Duration) ([]wire.ShardLSN, error)
	MultiDelete(keys []uint64) (int, []wire.ShardLSN, error)
	Cas(key uint64, old, new []byte) (bool, wire.ShardLSN, error)
	Txn(keys []uint64, fn func(*kvs.Tx) error) ([]wire.ShardLSN, error)
	Flush() int
	Reap(budget int) int
	Checkpoint() error

	// Writable is nil when the store takes writes at all; a read-only
	// replica answers why not. The executor asks before every mutating op,
	// so the write methods above never run on a store that said no.
	Writable() error
	// CheckToken adjudicates a read's (epoch, minLSN) token against every
	// shard keys touch; nil means the read may proceed.
	CheckToken(epoch, minLSN uint64, keys []uint64) *cluster.TokenError
}

// statusError is a failure the serving layer itself decided, carrying its
// status: an oversize value, ttl+async together, a write to a follower, a
// checkpoint of a volatile engine.
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

func (s *engineStore) Get(h *rwl.Reader, key uint64, buf []byte) ([]byte, bool) {
	return s.e.GetIntoH(h, key, buf)
}

func (s *engineStore) MultiGet(h *rwl.Reader, keys []uint64) [][]byte {
	return s.e.MultiGetH(h, keys)
}

func (s *engineStore) Put(key uint64, value []byte, ttl time.Duration) (wire.ShardLSN, error) {
	if ttl > 0 {
		s.e.PutTTL(key, value, ttl)
	} else {
		s.e.Put(key, value)
	}
	return s.token(key), nil
}

func (s *engineStore) PutAsync(key uint64, value []byte) error {
	s.e.PutAsync(key, value)
	return nil
}

// Delete stamps its token on a miss too: the delete is logged regardless.
func (s *engineStore) Delete(key uint64) (bool, wire.ShardLSN, error) {
	ok := s.e.Delete(key)
	return ok, s.token(key), nil
}

func (s *engineStore) MultiPut(keys []uint64, values [][]byte, ttl time.Duration) ([]wire.ShardLSN, error) {
	if ttl > 0 {
		s.e.MultiPutTTL(keys, values, ttl)
	} else {
		s.e.MultiPut(keys, values)
	}
	return s.tokens(keys), nil
}

func (s *engineStore) MultiDelete(keys []uint64) (int, []wire.ShardLSN, error) {
	n := s.e.MultiDelete(keys)
	return n, s.tokens(keys), nil
}

func (s *engineStore) Cas(key uint64, old, new []byte) (bool, wire.ShardLSN, error) {
	swapped, err := s.e.CompareAndSwap(key, old, new)
	return swapped, s.token(key), err
}

func (s *engineStore) Txn(keys []uint64, fn func(*kvs.Tx) error) ([]wire.ShardLSN, error) {
	if err := s.e.Txn(keys, fn); err != nil {
		return nil, err
	}
	return s.tokens(keys), nil
}

func (s *engineStore) Flush() int          { return s.e.Flush() }
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

// CheckToken ignores the epoch (one engine has one history). A follower
// waits up to s.wait overall for replication to cover the LSN; a durable
// primary's position always covers the tokens it handed out, so a lagging
// one there means a client confused about whom it wrote to.
func (s *engineStore) CheckToken(_, minLSN uint64, keys []uint64) *cluster.TokenError {
	if minLSN == 0 {
		return nil
	}
	if s.follower == nil && !s.e.Durable() {
		return &cluster.TokenError{Msg: "min_lsn on a volatile server: it has no LSNs"}
	}
	deadline := time.Now().Add(s.wait)
	for _, k := range keys {
		sh := s.e.ShardOf(k)
		if s.follower != nil {
			if !s.follower.WaitMinLSN(sh, minLSN, time.Until(deadline)) {
				return &cluster.TokenError{Conflict: true, Msg: fmt.Sprintf(
					"replica shard %d at LSN %d, need %d: retry, or read the primary", sh, s.follower.AppliedLSN(sh), minLSN)}
			}
		} else if have := s.e.ShardLSN(sh); have < minLSN {
			return &cluster.TokenError{Conflict: true, Msg: fmt.Sprintf(
				"shard %d at LSN %d, token says %d: this primary never issued it", sh, have, minLSN)}
		}
	}
	return nil
}

// token is key's shard's commit position after a write to it; the zero
// token on a volatile engine.
func (s *engineStore) token(key uint64) wire.ShardLSN {
	if !s.e.Durable() {
		return wire.ShardLSN{}
	}
	sh := s.e.ShardOf(key)
	return wire.ShardLSN{Shard: uint32(sh), LSN: s.e.ShardLSN(sh)}
}

// tokens is token for a batch: one per distinct shard keys touch.
func (s *engineStore) tokens(keys []uint64) []wire.ShardLSN {
	if !s.e.Durable() {
		return nil
	}
	toks := make([]wire.ShardLSN, 0, min(len(keys), s.e.NumShards()))
	return cluster.CommitLSNs(toks, s.e, keys, 0)
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
