package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/repl"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/wire"
)

// ErrFenced is returned by every write against a fenced member: the
// primary was deposed, its epoch is over, and nothing it accepts can ever
// become durable history.
var ErrFenced = errors.New("cluster: member is fenced (deposed by failover)")

// Member is one partition's primary: a durable engine, the replication
// server its followers stream from, and the fenced flag.
//
// The fence is the failover proof obligation, and it rests on one lock:
// the partition's. Every write is called with mu's read side held and
// commits only if fenced is clear; Fence (or Failover, which already
// holds it) takes mu's write side before setting fenced. RWMutex writer
// acquisition therefore gives the promotion protocol its key property
// directly: when the flag is set, every in-flight write has either
// committed (and is visible to the LSN cut) or will observe fenced and be
// rejected — there is no third interleaving where a revived old primary
// commits a record after the cut was read. The flag never clears, so a
// corpse rejects its writes with or without the lock.
type Member struct {
	partition int
	epoch     uint64
	engine    *kvs.Sharded
	prim      *repl.Primary
	ln        net.Listener

	mu     *sync.RWMutex // the partition's lock
	fenced atomic.Bool

	closeOnce sync.Once
}

// newMember opens a durable engine in dir and serves the partition's
// replication ops on a loopback listener. mu is the partition's lock,
// which fences the member.
func newMember(partition int, epoch uint64, dir string, shards int, mk rwl.Factory, policy kvs.SyncPolicy, mu *sync.RWMutex) (*Member, error) {
	engine, err := kvs.OpenSharded(dir, shards, mk, policy)
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
		engine:    engine,
		prim:      repl.NewPrimary(engine),
		ln:        ln,
		mu:        mu,
	}
	go m.prim.Serve(ln)
	return m, nil
}

// Fence deposes the member. It takes the partition lock's write side, so
// it blocks until every in-flight write has committed; once it returns, no
// write can ever commit here again, so the caller may read the engine's
// LSNs as the final history of this epoch.
func (m *Member) Fence() {
	m.mu.Lock()
	m.fenced.Store(true)
	m.mu.Unlock()
}

// Close stops serving and closes the engine (syncing its WAL). It commits
// nothing: every write the member accepted was applied before it was
// answered. Idempotent.
func (m *Member) Close() error {
	var err error
	m.closeOnce.Do(func() {
		m.prim.Close()
		err = m.engine.Close()
	})
	return err
}

// write applies req through ApplyWrite, stamping this member's partition
// and epoch on its tokens. It is called with m.mu's read side held: that
// lock, not the member, is what keeps a commit on one side of the fence.
// A TXN runs its whole two-phase commit inside it, so a transaction either
// commits on every participant shard before Fence returns, or not at all.
func (m *Member) write(req *wire.Request, resp *wire.Response) error {
	if m.fenced.Load() {
		return ErrFenced
	}
	return ApplyWrite(m.engine, m.partition, m.epoch, req, resp)
}

// reap runs one bounded TTL sweep. Fenced like any other mutation: expiry
// removal logs deletes, and a fenced member's log is closed history.
func (m *Member) reap(budget int) (int, error) {
	if m.fenced.Load() {
		return 0, ErrFenced
	}
	return m.engine.Reap(budget), nil
}
