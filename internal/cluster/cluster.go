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
// followers, and the fencing history. mu's write side is held only by
// Failover; every op and token check holds the read side, so a partition
// swap is atomic from the callers' perspective.
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
		m, err := newMember(i, 1, c.partDir(i, 1), cfg.Shards, cfg.MkLock, cfg.Policy, nil)
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
			Primary:       m.URL(),
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

// ShardsPerPartition returns each partition engine's shard count.
func (c *Cluster) ShardsPerPartition() int { return c.cfg.Shards }

// Partition returns the partition owning key.
func (c *Cluster) Partition(key uint64) int { return c.router.Partition(key) }

// Router returns the cluster's key router.
func (c *Cluster) Router() *Router { return c.router }

// Epoch returns partition pi's current fencing epoch.
func (c *Cluster) Epoch(pi int) uint64 {
	p := c.parts[pi]
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.epoch
}

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

// globalShard widens a partition-local shard to the cluster-wide token
// namespace.
func (c *Cluster) globalShard(pi, shard int) uint32 {
	return uint32(pi*c.cfg.Shards + shard)
}

// SplitGlobalShard inverts globalShard: the partition and local shard a
// token's Shard names. ok is false when the shard is out of range.
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

// MultiGet fans a batch out per partition — each partition's group is one
// engine call, riding the shard-grouping pass — and scatters the values
// back in key order (nil marks absent).
func (c *Cluster) MultiGet(h *rwl.Reader, keys []uint64) [][]byte {
	out := make([][]byte, len(keys))
	groups := c.router.Split(keys)
	sub := make([]uint64, 0, len(keys))
	for pi, group := range groups {
		if len(group) == 0 {
			continue
		}
		sub = sub[:0]
		for _, i := range group {
			sub = append(sub, keys[i])
		}
		p := c.parts[pi]
		p.mu.RLock()
		vals := p.member.engine.MultiGetH(h, sub)
		p.mu.RUnlock()
		for j, i := range group {
			out[i] = vals[j]
		}
	}
	return out
}

// Put writes key through its partition's primary and returns the
// read-your-writes token.
func (c *Cluster) Put(key uint64, value []byte, ttl time.Duration) (ShardLSN, error) {
	pi := c.router.Partition(key)
	p := c.parts[pi]
	p.mu.RLock()
	defer p.mu.RUnlock()
	shard, lsn, err := p.member.Put(key, value, ttl)
	if err != nil {
		return ShardLSN{}, err
	}
	return ShardLSN{Shard: c.globalShard(pi, shard), LSN: lsn, Epoch: p.epoch}, nil
}

// PutAsync enqueues key on its partition's shard write queue; no token.
func (c *Cluster) PutAsync(key uint64, value []byte) error {
	p := c.parts[c.router.Partition(key)]
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.member.PutAsync(key, value)
}

// Delete removes key, reporting presence plus the token (deletes are
// logged even on a miss).
func (c *Cluster) Delete(key uint64) (bool, ShardLSN, error) {
	pi := c.router.Partition(key)
	p := c.parts[pi]
	p.mu.RLock()
	defer p.mu.RUnlock()
	ok, shard, lsn, err := p.member.Delete(key)
	if err != nil {
		return false, ShardLSN{}, err
	}
	return ok, ShardLSN{Shard: c.globalShard(pi, shard), LSN: lsn, Epoch: p.epoch}, nil
}

// ErrCrossPartitionTxn rejects a transaction whose keys hash to more than
// one partition. Transactions are shard-ordered two-phase locking inside
// one engine; partitions are independent failure domains with independent
// fencing epochs, and a cross-partition commit would need a distributed
// protocol the cluster deliberately does not have. Callers co-locate
// transactional keys (the router is stable, so a key set that routes
// together keeps routing together) or split the work.
var ErrCrossPartitionTxn = errors.New("cluster: transaction keys span multiple partitions (transactions are single-partition)")

// Cas runs a compare-and-swap on key's partition, returning whether it
// swapped plus the commit token.
func (c *Cluster) Cas(key uint64, old, new []byte) (bool, ShardLSN, error) {
	pi := c.router.Partition(key)
	p := c.parts[pi]
	p.mu.RLock()
	defer p.mu.RUnlock()
	swapped, shard, lsn, err := p.member.Cas(key, old, new)
	if err != nil {
		return false, ShardLSN{}, err
	}
	return swapped, ShardLSN{Shard: c.globalShard(pi, shard), LSN: lsn, Epoch: p.epoch}, nil
}

// Txn runs fn as a bounded multi-key transaction on the partition owning
// every key, returning the declared shards' commit tokens. Key sets that
// span partitions are rejected with ErrCrossPartitionTxn before any lock
// is taken.
func (c *Cluster) Txn(keys []uint64, fn func(*kvs.Tx) error) ([]ShardLSN, error) {
	if len(keys) == 0 {
		// Let the engine surface its own typed validation error.
		return nil, c.parts[0].member.engine.Txn(keys, fn)
	}
	pi := c.router.Partition(keys[0])
	for _, k := range keys[1:] {
		if other := c.router.Partition(k); other != pi {
			return nil, fmt.Errorf("%w: key %d routes to partition %d, key %d to %d",
				ErrCrossPartitionTxn, keys[0], pi, k, other)
		}
	}
	p := c.parts[pi]
	p.mu.RLock()
	defer p.mu.RUnlock()
	lsns, err := p.member.Txn(keys, fn, nil)
	if err != nil {
		return nil, err
	}
	for i := range lsns {
		lsns[i].Shard = c.globalShard(pi, int(lsns[i].Shard))
	}
	return lsns, nil
}

// MultiPut fans a batch out per partition (one engine call each) and
// returns the commit token of every global shard the batch touched. On a
// mid-batch fencing error the tokens already earned are returned alongside
// it: partitions are independent failure domains and the applied groups
// stay applied.
func (c *Cluster) MultiPut(keys []uint64, values [][]byte, ttl time.Duration) ([]ShardLSN, error) {
	var lsns []ShardLSN
	var firstErr error
	groups := c.router.Split(keys)
	subK := make([]uint64, 0, len(keys))
	subV := make([][]byte, 0, len(values))
	for pi, group := range groups {
		if len(group) == 0 {
			continue
		}
		subK, subV = subK[:0], subV[:0]
		for _, i := range group {
			subK = append(subK, keys[i])
			subV = append(subV, values[i])
		}
		base := len(lsns)
		p := c.parts[pi]
		p.mu.RLock()
		out, err := p.member.MultiPut(subK, subV, ttl, lsns)
		epoch := p.epoch
		p.mu.RUnlock()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: partition %d: %w", pi, err)
			}
			continue
		}
		lsns = out
		for i := base; i < len(lsns); i++ {
			lsns[i].Shard = c.globalShard(pi, int(lsns[i].Shard))
			lsns[i].Epoch = epoch
		}
	}
	return lsns, firstErr
}

// MultiDelete is MultiPut's removal twin: the removed count plus tokens.
func (c *Cluster) MultiDelete(keys []uint64) (int, []ShardLSN, error) {
	var lsns []ShardLSN
	var removed int
	var firstErr error
	groups := c.router.Split(keys)
	sub := make([]uint64, 0, len(keys))
	for pi, group := range groups {
		if len(group) == 0 {
			continue
		}
		sub = sub[:0]
		for _, i := range group {
			sub = append(sub, keys[i])
		}
		base := len(lsns)
		p := c.parts[pi]
		p.mu.RLock()
		n, out, err := p.member.MultiDelete(sub, lsns)
		epoch := p.epoch
		p.mu.RUnlock()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: partition %d: %w", pi, err)
			}
			continue
		}
		removed += n
		lsns = out
		for i := base; i < len(lsns); i++ {
			lsns[i].Shard = c.globalShard(pi, int(lsns[i].Shard))
			lsns[i].Epoch = epoch
		}
	}
	return removed, lsns, firstErr
}

// Writable reports why the cluster refuses writes wholesale: never — it
// fronts primaries (a fenced one refuses per write with ErrFenced). The
// serving layer's store contract asks, because a follower replica does.
func (c *Cluster) Writable() error { return nil }

// Flush applies every partition's queued async writes.
func (c *Cluster) Flush() int {
	total := 0
	for _, p := range c.parts {
		p.mu.RLock()
		n, err := p.member.Flush()
		p.mu.RUnlock()
		if err == nil {
			total += n
		}
	}
	return total
}

// Reap runs one bounded TTL sweep on every partition's primary.
func (c *Cluster) Reap(budget int) int {
	total := 0
	for _, p := range c.parts {
		p.mu.RLock()
		n, err := p.member.Reap(budget)
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
		p.mu.RLock()
		fs := append([]*repl.Follower(nil), p.followers...)
		p.mu.RUnlock()
		for _, f := range fs {
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

// RemoveData deletes the cluster's data directory tree; call after Close
// in tests and benches that do not keep state.
func (c *Cluster) RemoveData() error { return os.RemoveAll(c.cfg.Dir) }
