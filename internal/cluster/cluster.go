package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/repl"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/wire"
)

// Config sizes a cluster.
type Config struct {
	// Partitions is the primary count: how many ways the keyspace splits.
	Partitions int
	// Shards is each partition engine's shard count (power of two).
	Shards int
	// Followers is each partition's replica count — the failover pool. Zero
	// means no failover capacity (Failover errors).
	Followers int
	// Dir is the root data directory; each primary epoch gets a
	// subdirectory (pNN-eNNNNNN).
	Dir string
	// Policy is every primary's WAL sync policy.
	Policy kvs.SyncPolicy
	// MkLock builds per-shard locks for primaries and followers alike; nil
	// means each engine's own default.
	MkLock rwl.Factory
	// RetryInterval paces follower reconnects; 0 means repl's default.
	RetryInterval time.Duration
}

// Cluster is N hash-routed partitioned primaries, each with its own
// follower set, behind one keyspace. All methods are safe for concurrent
// use; during a partition's failover, operations touching that partition
// block until the promotion completes (the recovery-time-to-first-write
// the bench measures), while other partitions keep serving.
type Cluster struct {
	cfg    Config
	router *Router
	parts  []*partition

	closeOnce sync.Once
	closeErr  error
}

// partition is one slice of the keyspace: the current primary, its
// followers, and the fencing history. mu is the partition's one lock. Its
// write side is held by Failover and by Member.Fence; every op and token
// check holds the read side, so a partition swap is atomic from the
// callers' perspective, and a write commits either before its member is
// fenced or not at all.
type partition struct {
	idx int

	mu         sync.RWMutex
	member     *Member
	followers  []*repl.Follower
	epoch      uint64
	promotions []promotion
	corpses    []*Member
}

// promotion records one epoch bump's surviving-history cut: per local
// shard, the highest LSN of the old epoch that made it into the promoted
// history. Cuts are monotonic per shard across promotions (each new
// primary's log starts at its cut), which is what lets checkTokenLocked
// use the first cut after a token's epoch as the binding one.
type promotion struct {
	epoch uint64
	cut   []uint64
}

// Open builds the cluster: one durable primary per partition (epoch 1),
// each with Followers live replicas streaming from it.
func Open(cfg Config) (*Cluster, error) {
	if cfg.Partitions <= 0 {
		return nil, fmt.Errorf("cluster: %d partitions", cfg.Partitions)
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("cluster: Dir is required (primaries are durable; failover needs their WALs)")
	}
	ids := make([]uint64, cfg.Partitions)
	for i := range ids {
		ids[i] = uint64(i)
	}
	router, err := NewRouter(ids)
	if err != nil {
		return nil, err
	}
	if cfg.MkLock == nil {
		cfg.MkLock = func() rwl.RWLock { return new(stdrw.Lock) }
	}
	c := &Cluster{cfg: cfg, router: router, parts: make([]*partition, cfg.Partitions)}
	for i := range c.parts {
		p := &partition{idx: i, epoch: 1}
		m, err := newMember(i, 1, c.partDir(i, 1), cfg.Shards, cfg.MkLock, cfg.Policy, &p.mu)
		if err != nil {
			c.Close()
			return nil, err
		}
		p.member = m
		p.followers, err = c.openFollowers(m)
		if err != nil {
			m.Close()
			c.Close()
			return nil, err
		}
		c.parts[i] = p
	}
	return c, nil
}

func (c *Cluster) partDir(pi int, epoch uint64) string {
	return filepath.Join(c.cfg.Dir, fmt.Sprintf("p%02d-e%06d", pi, epoch))
}

func (c *Cluster) openFollowers(m *Member) ([]*repl.Follower, error) {
	fs := make([]*repl.Follower, 0, c.cfg.Followers)
	for i := 0; i < c.cfg.Followers; i++ {
		f, err := repl.Open(repl.Config{
			Primary:       m.ln.Addr().String(),
			MkLock:        c.cfg.MkLock,
			RetryInterval: c.cfg.RetryInterval,
		})
		if err != nil {
			for _, g := range fs {
				g.Close()
			}
			return nil, fmt.Errorf("cluster: partition %d follower %d: %w", m.partition, i, err)
		}
		fs = append(fs, f)
	}
	return fs, nil
}

// NumPartitions returns the primary count.
func (c *Cluster) NumPartitions() int { return c.cfg.Partitions }

// Partition returns the partition owning key.
func (c *Cluster) Partition(key uint64) int { return c.router.Partition(key) }

// Member returns partition pi's current primary — chaos tests hold it to
// fence "the process" out from under the cluster and hammer the corpse.
func (c *Cluster) Member(pi int) *Member {
	p := c.parts[pi]
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.member
}

// Followers returns partition pi's current follower set.
func (c *Cluster) Followers(pi int) []*repl.Follower {
	p := c.parts[pi]
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]*repl.Follower(nil), p.followers...)
}

// SplitGlobalShard inverts the global shard CommitLSNs stamps: the
// partition and local shard a token's Shard names. ok is false when the
// shard is out of range.
func (c *Cluster) SplitGlobalShard(g uint32) (pi, shard int, ok bool) {
	pi, shard = int(g)/c.cfg.Shards, int(g)%c.cfg.Shards
	return pi, shard, pi < c.cfg.Partitions
}

// Get reads key through the owning partition's primary, appending into buf
// like kvs.GetIntoH.
func (c *Cluster) Get(h *rwl.Reader, key uint64, buf []byte) ([]byte, bool) {
	p := c.parts[c.router.Partition(key)]
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.member.engine.GetIntoH(h, key, buf)
}

// fanOut calls fn once per partition owning any of keys, in ascending
// order, with the partition, the positions in keys of its sub-batch (its
// entry of groups, router.Split(keys)) and the sub-batch itself (reused
// across calls), under the partition's read lock unless the caller holds
// them all. It returns the first error fn reports, naming its partition (a
// TokenError names it already and passes as is); the other partitions
// still run: they are independent failure domains.
func (c *Cluster) fanOut(keys []uint64, groups [][]int, held bool, fn func(p *partition, idx []int, sub []uint64) error) error {
	var firstErr error
	sub := make([]uint64, 0, len(keys))
	for pi, idx := range groups {
		if len(idx) == 0 {
			continue
		}
		sub = sub[:0]
		for _, i := range idx {
			sub = append(sub, keys[i])
		}
		p := c.parts[pi]
		if !held {
			p.mu.RLock()
		}
		err := fn(p, idx, sub)
		if !held {
			p.mu.RUnlock()
		}
		if _, named := err.(*TokenError); err != nil && !named {
			err = fmt.Errorf("cluster: partition %d: %w", pi, err)
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Read answers a GET or MGET through ApplyRead, its token (req.MinLSN,
// req.Epoch) checked with checkTokenLocked under the same hold of the owning
// partition's read lock as the read, so no failover falls between a verdict
// and the read it admits. An MGET fans out, one engine call per partition,
// and scatters the values back in key order; one bearing a token first holds
// every partition it touches, in ascending order, and checks every key, so a
// refusal reads nothing. Failover, Fence and Close hold one partition at a
// time, so the holds cannot deadlock.
func (c *Cluster) Read(h *rwl.Reader, req *wire.Request, resp *wire.Response) error {
	if req.MinLSN != 0 && req.Epoch == 0 {
		return &TokenError{Msg: "cluster read tokens carry an epoch: pass the epoch stamped on the write"}
	}
	if req.Op != wire.OpMGet {
		p := c.parts[c.router.Partition(req.Key)]
		p.mu.RLock()
		defer p.mu.RUnlock()
		return ApplyRead(p.member.engine, h, req, resp, p.checkTokenLocked)
	}
	out, sub := make([][]byte, len(req.Keys)), *req
	groups, held := c.router.Split(req.Keys), req.MinLSN != 0
	if held {
		each := func(op func(*sync.RWMutex)) {
			for pi, idx := range groups {
				if len(idx) != 0 {
					op(&c.parts[pi].mu)
				}
			}
		}
		each((*sync.RWMutex).RLock)
		defer each((*sync.RWMutex).RUnlock)
		for _, k := range req.Keys {
			p := c.parts[c.router.Partition(k)]
			if terr := p.checkTokenLocked(req.Epoch, req.MinLSN, p.member.engine.ShardOf(k)); terr != nil {
				return terr
			}
		}
		sub.MinLSN = 0 // checked, under holds that last through the reads
	}
	resp.Values = out
	return c.fanOut(req.Keys, groups, held, func(p *partition, idx []int, keys []uint64) error {
		var part wire.Response
		sub.Keys = keys
		err := ApplyRead(p.member.engine, h, &sub, &part, p.checkTokenLocked)
		for j, v := range part.Values {
			out[idx[j]] = v
		}
		return err
	})
}

// Write applies a write request and answers it into resp, its tokens
// stamped with the epoch of each partition that committed. A point op goes
// to its key's partition. A batch fans out, one engine call per partition
// it touches; on a mid-batch fencing error the tokens already earned stay
// in resp alongside it: partitions are independent failure domains and the
// applied groups stay applied. A TXN runs on the one partition owning every
// key it declares; one spanning partitions is refused with
// ErrCrossPartitionTxn before any lock is taken.
func (c *Cluster) Write(req *wire.Request, resp *wire.Response) error {
	key := req.Key
	switch req.Op {
	case wire.OpMPut, wire.OpMDelete:
		sub, vals := *req, make([][]byte, 0, len(req.Values))
		return c.fanOut(req.Keys, c.router.Split(req.Keys), false, func(p *partition, idx []int, keys []uint64) error {
			sub.Keys = keys
			if req.Op == wire.OpMPut {
				vals = vals[:0]
				for _, i := range idx {
					vals = append(vals, req.Values[i])
				}
				sub.Values = vals
			}
			return p.member.write(&sub, resp)
		})
	case wire.OpTxn:
		n := len(req.Conds) + len(req.TxnOps)
		if n == 0 {
			// The engine's typed error, read from no member: Failover swaps them.
			return kvs.ErrTxnNoKeys
		}
		key = txnKey(req, 0)
		pi := c.router.Partition(key)
		for i := 1; i < n; i++ {
			if k := txnKey(req, i); c.router.Partition(k) != pi {
				return fmt.Errorf("%w: key %d routes to partition %d, key %d to %d",
					ErrCrossPartitionTxn, key, pi, k, c.router.Partition(k))
			}
		}
	}
	p := c.parts[c.router.Partition(key)]
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.member.write(req, resp)
}

// Put writes key through its partition's primary and returns the
// read-your-writes token.
func (c *Cluster) Put(key uint64, value []byte, ttl time.Duration) (ShardLSN, error) {
	var tok [1]ShardLSN
	err := c.Write(&wire.Request{Op: wire.OpPut, Key: key, Value: value, TTL: ttl}, &wire.Response{LSNs: tok[:0]})
	return tok[0], err
}

// ErrCrossPartitionTxn rejects a transaction whose keys hash to more than
// one partition. Transactions are shard-ordered two-phase locking inside
// one engine; partitions are independent failure domains with independent
// fencing epochs, and a cross-partition commit would need a distributed
// protocol the cluster deliberately does not have. Callers co-locate
// transactional keys (the router is stable, so a key set that routes
// together keeps routing together) or split the work.
var ErrCrossPartitionTxn = errors.New("cluster: transaction keys span multiple partitions (transactions are single-partition)")

// Writable reports why the cluster refuses writes wholesale: never — it
// fronts primaries (a fenced one refuses per write with ErrFenced). The
// serving layer's store contract asks, because a follower replica does.
func (c *Cluster) Writable() error { return nil }

// Reap runs one bounded TTL sweep on every partition's primary.
func (c *Cluster) Reap(budget int) int {
	total := 0
	for _, p := range c.parts {
		p.mu.RLock()
		n, err := p.member.reap(budget)
		p.mu.RUnlock()
		if err == nil {
			total += n
		}
	}
	return total
}

// Checkpoint snapshots every partition's primary and truncates its WALs.
func (c *Cluster) Checkpoint() error {
	for _, p := range c.parts {
		p.mu.RLock()
		err := p.member.engine.Checkpoint()
		p.mu.RUnlock()
		if err != nil {
			return fmt.Errorf("cluster: partition %d: %w", p.idx, err)
		}
	}
	return nil
}

// WaitCaughtUp blocks until every follower of every partition has applied
// its primary's current LSNs — the quiescence barrier graceful failover
// tests use for a zero-loss cut.
func (c *Cluster) WaitCaughtUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, p := range c.parts {
		for _, f := range c.Followers(p.idx) {
			if err := f.WaitCaughtUp(time.Until(deadline)); err != nil {
				return fmt.Errorf("cluster: partition %d: %w", p.idx, err)
			}
		}
	}
	return nil
}

// Close shuts the whole cluster down: followers, primaries, and the
// fenced corpses failovers left behind.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		for _, p := range c.parts {
			if p == nil {
				continue
			}
			p.mu.Lock()
			for _, f := range p.followers {
				f.Close()
			}
			if p.member != nil {
				if err := p.member.Close(); err != nil && c.closeErr == nil {
					c.closeErr = err
				}
			}
			for _, corpse := range p.corpses {
				corpse.Close()
			}
			p.mu.Unlock()
		}
	})
	return c.closeErr
}

// removeData deletes the cluster's data directory tree; call after Close.
func (c *Cluster) removeData() error { return os.RemoveAll(c.cfg.Dir) }
