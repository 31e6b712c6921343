package cluster

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/repl"
	"github.com/bravolock/bravo/internal/rwl"
)

// ErrFenced is returned by every write against a fenced member: the
// primary was deposed, its epoch is over, and nothing it accepts can ever
// become durable history.
var ErrFenced = errors.New("cluster: member is fenced (deposed by failover)")

// Member is one partition's primary: a durable engine, the replication
// server its followers stream from, and the fencing gate.
//
// The gate is the failover proof obligation, so its discipline is strict:
// every write path holds gate.RLock across the engine commit, and Fence
// takes gate.Lock before marking the member fenced. RWMutex writer
// acquisition therefore gives the promotion protocol its key property
// directly: when Fence returns, every in-flight write has either committed
// (and is visible to the LSN cut) or will observe fenced and be rejected —
// there is no third interleaving where a revived old primary commits a
// record after the cut was read.
type Member struct {
	partition int
	epoch     uint64
	dir       string
	engine    *kvs.Sharded
	prim      *repl.Primary
	ln        net.Listener
	hsrv      *http.Server

	gate   sync.RWMutex
	fenced bool

	closeOnce sync.Once
}

// newMember opens a durable engine in dir and starts the partition's
// replication endpoint on a loopback listener. lsnBase, when non-nil, is
// the promotion cut: the engine's per-shard LSNs continue from it.
func newMember(partition int, epoch uint64, dir string, shards int, mk rwl.Factory, policy kvs.SyncPolicy, lsnBase []uint64) (*Member, error) {
	opts := []kvs.Option{kvs.WithDurability(dir, policy)}
	if lsnBase != nil {
		opts = append(opts, kvs.WithLSNBase(lsnBase))
	}
	engine, err := kvs.NewSharded(shards, mk, opts...)
	if err != nil {
		return nil, fmt.Errorf("cluster: partition %d engine: %w", partition, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		engine.Close()
		return nil, fmt.Errorf("cluster: partition %d repl listener: %w", partition, err)
	}
	m := &Member{
		partition: partition,
		epoch:     epoch,
		dir:       dir,
		engine:    engine,
		prim:      repl.NewPrimary(engine),
		ln:        ln,
	}
	mux := http.NewServeMux()
	m.prim.Register(mux)
	m.hsrv = &http.Server{Handler: mux}
	go m.hsrv.Serve(ln)
	return m, nil
}

// URL returns the member's replication base URL (followers' Config.Primary).
func (m *Member) URL() string { return "http://" + m.ln.Addr().String() }

// Engine returns the member's engine. Reads may go straight at it; writes
// must go through the fenced write methods or they void the failover
// proof.
func (m *Member) Engine() *kvs.Sharded { return m.engine }

// Epoch returns the fencing epoch this member was installed at.
func (m *Member) Epoch() uint64 { return m.epoch }

// Dir returns the member's data directory.
func (m *Member) Dir() string { return m.dir }

// Fenced reports whether the member has been deposed.
func (m *Member) Fenced() bool {
	m.gate.RLock()
	defer m.gate.RUnlock()
	return m.fenced
}

// Fence deposes the member. It blocks until every in-flight write has
// committed; once it returns, no write can ever commit here again, so the
// caller may read the engine's LSNs as the final history of this epoch.
func (m *Member) Fence() {
	m.gate.Lock()
	m.fenced = true
	m.gate.Unlock()
}

// StopServing closes the replication endpoint — the network half of a
// kill. Followers lose their streams mid-frame; the engine stays open so a
// chaos test can keep hammering the corpse and prove the fence holds.
func (m *Member) StopServing() {
	m.hsrv.Close()
}

// Close stops serving and closes the engine (syncing its WAL). Idempotent.
func (m *Member) Close() error {
	var err error
	m.closeOnce.Do(func() {
		m.hsrv.Close()
		err = m.engine.Close()
	})
	return err
}

// write runs fn under the fencing gate: the read side of the RWMutex, held
// across the engine commit, so Fence's writer acquisition is the barrier
// the promotion cut is read behind.
func (m *Member) write(fn func()) error {
	m.gate.RLock()
	defer m.gate.RUnlock()
	if m.fenced {
		return ErrFenced
	}
	fn()
	return nil
}

// Put stores key (with ttl when positive) and returns the commit token's
// local half: the shard and its commit LSN, stamped with this member's
// epoch by the caller.
func (m *Member) Put(key uint64, value []byte, ttl time.Duration) (shard int, lsn uint64, err error) {
	err = m.write(func() {
		if ttl > 0 {
			m.engine.PutTTL(key, value, ttl)
		} else {
			m.engine.Put(key, value)
		}
		shard = m.engine.ShardOf(key)
		lsn = m.engine.ShardLSN(shard)
	})
	return
}

// PutAsync enqueues key on its shard's write queue; no token (the write
// has not applied). The fence gate still guards it: a fenced member's
// queue must not accept work that a later Flush would commit.
func (m *Member) PutAsync(key uint64, value []byte) error {
	return m.write(func() { m.engine.PutAsync(key, value) })
}

// Delete removes key, reporting whether it was present, plus the commit
// token half (the delete is logged even on a miss).
func (m *Member) Delete(key uint64) (ok bool, shard int, lsn uint64, err error) {
	err = m.write(func() {
		ok = m.engine.Delete(key)
		shard = m.engine.ShardOf(key)
		lsn = m.engine.ShardLSN(shard)
	})
	return
}

// MultiPut applies a batch (one engine call: one lock acquisition and one
// group commit per shard touched) and appends each touched shard's commit
// LSN to lsns.
func (m *Member) MultiPut(keys []uint64, values [][]byte, ttl time.Duration, lsns []ShardLSN) ([]ShardLSN, error) {
	err := m.write(func() {
		if ttl > 0 {
			m.engine.MultiPutTTL(keys, values, ttl)
		} else {
			m.engine.MultiPut(keys, values)
		}
		lsns = CommitLSNs(lsns, m.engine, keys, m.epoch)
	})
	return lsns, err
}

// MultiDelete removes a batch, reporting the removed count and appending
// commit LSNs like MultiPut.
func (m *Member) MultiDelete(keys []uint64, lsns []ShardLSN) (int, []ShardLSN, error) {
	var removed int
	err := m.write(func() {
		removed = m.engine.MultiDelete(keys)
		lsns = CommitLSNs(lsns, m.engine, keys, m.epoch)
	})
	return removed, lsns, err
}

// Cas runs a single-key compare-and-swap under the fencing gate, returning
// the commit token's local half (a non-swapping CAS still commits a
// read-only transaction, so the token is stamped on both outcomes).
func (m *Member) Cas(key uint64, old, new []byte) (swapped bool, shard int, lsn uint64, err error) {
	gerr := m.write(func() {
		swapped, err = m.engine.CompareAndSwap(key, old, new)
		shard = m.engine.ShardOf(key)
		lsn = m.engine.ShardLSN(shard)
	})
	if gerr != nil {
		err = gerr
	}
	return
}

// Txn runs a bounded multi-key transaction under the fencing gate and, on
// commit, appends each declared shard's commit LSN to lsns. Holding the
// gate across the whole two-phase commit keeps the failover property: a
// transaction either commits on every participant shard before Fence
// returns, or not at all.
func (m *Member) Txn(keys []uint64, fn func(*kvs.Tx) error, lsns []ShardLSN) ([]ShardLSN, error) {
	var txErr error
	gerr := m.write(func() {
		txErr = m.engine.Txn(keys, fn)
		if txErr == nil {
			lsns = CommitLSNs(lsns, m.engine, keys, m.epoch)
		}
	})
	if gerr != nil {
		return lsns, gerr
	}
	return lsns, txErr
}

// Flush applies the member's queued async writes. Gated: a fenced member
// flushing its queue into the engine would be a post-fence commit.
func (m *Member) Flush() (int, error) {
	var n int
	err := m.write(func() { n = m.engine.Flush() })
	return n, err
}

// Reap runs one bounded TTL sweep. Gated like any other mutation: expiry
// removal logs deletes, and a fenced member's log is closed history.
func (m *Member) Reap(budget int) (int, error) {
	var n int
	err := m.write(func() { n = m.engine.Reap(budget) })
	return n, err
}
