package bravo

import (
	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/locks/cohort"
	"github.com/bravolock/bravo/internal/locks/fairrw"
	"github.com/bravolock/bravo/internal/locks/mutexrw"
	"github.com/bravolock/bravo/internal/locks/percpu"
	"github.com/bravolock/bravo/internal/locks/pfq"
	"github.com/bravolock/bravo/internal/locks/pft"
	"github.com/bravolock/bravo/internal/locks/ptl"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/repl"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/topo"
)

// Token carries per-acquisition reader state from RLock to RUnlock.
type Token = rwl.Token

// RWLock is the reader-writer lock interface BRAVO wraps and implements.
type RWLock = rwl.RWLock

// TryRWLock extends RWLock with non-blocking acquisition attempts.
type TryRWLock = rwl.TryRWLock

// HandleRWLock extends RWLock with handle-accepting read paths
// (RLockH/RUnlockH). bravo.Lock implements it.
type HandleRWLock = rwl.HandleRWLock

// Reader is a per-goroutine (or per-request) reader handle: a pinned
// identity plus a per-lock cache of the last fast-path slot, making the
// steady-state read one CAS with no hashing, and arming unbalanced-unlock
// detection. A Reader must not be shared between concurrent goroutines.
type Reader = rwl.Reader

// NewReader returns a reader handle with a fresh pinned identity.
func NewReader() *Reader { return rwl.NewReader() }

// NewReaderWithID returns a reader handle with an explicit identity, for
// reproducible (lock, reader) → slot mappings.
func NewReaderWithID(id uint64) *Reader { return rwl.NewReaderWithID(id) }

// Lock is a BRAVO-transformed reader-writer lock (BRAVO-A, paper §3).
type Lock = core.Lock

// Table is a visible readers table; all locks in a process share one by
// default (32KB for the paper's 4096 slots; the unlock guard's generation
// shares each slot's word).
type Table = bias.Table

// Option configures a Lock at construction.
type Option = core.Option

// Policy decides when slow-path readers may (re-)enable reader bias.
type Policy = bias.Policy

// Stats counts BRAVO path events when attached with WithStats.
type Stats = bias.Stats

// Snapshot is an immutable copy of Stats.
type Snapshot = bias.Snapshot

// DefaultTableSize is the paper's visible-readers-table size (4096 slots).
const DefaultTableSize = bias.DefaultTableSize

// DefaultInhibitN is the paper's revocation slow-down guard multiplier (9),
// bounding writer slow-down to about 1/(N+1) ≈ 10%.
const DefaultInhibitN = bias.DefaultInhibitN

// New wraps an existing reader-writer lock with the BRAVO transformation.
// The result preserves the underlying lock's admission policy and adds the
// biased reader fast path.
func New(under RWLock, opts ...Option) *Lock { return core.New(under, opts...) }

// NewTable allocates a private flat visible readers table (size must be a
// power of two). Most programs should use the shared default instead.
func NewTable(size int) *Table { return bias.NewTable(size) }

// NewTable2D allocates a BRAVO-2D sectored table: rows selected by thread,
// columns by lock, with column-only revocation scans (paper §7).
func NewTable2D(rows, rowLen int) *Table { return bias.NewTable2D(rows, rowLen) }

// SharedTable returns the process-wide default table.
func SharedTable() *Table { return bias.SharedTable() }

// Configuration options (see the paper sections noted on each).
var (
	// WithTable directs the lock at a specific table (§5.1's idealized
	// per-lock-table variant, or a 2D table).
	WithTable = core.WithTable
	// WithPolicy installs a bias-enabling policy.
	WithPolicy = core.WithPolicy
	// WithStats attaches event counters (adds probe traffic, like lockstat).
	WithStats = core.WithStats
	// WithInhibitN tunes the 1/(N+1) writer slow-down bound (§3).
	WithInhibitN = core.WithInhibitN
	// WithSecondProbe probes an alternate slot before diverting (§7).
	WithSecondProbe = core.WithSecondProbe
	// WithRandomizedIndex selects non-deterministic slot indices (§7).
	WithRandomizedIndex = core.WithRandomizedIndex
	// WithRevocationMutex lets readers progress during revocation (§7).
	WithRevocationMutex = core.WithRevocationMutex
)

// NewInhibitPolicy returns the paper's default policy with multiplier n.
func NewInhibitPolicy(n int64) Policy { return bias.NewInhibitPolicy(n) }

// Substrate locks. Each is usable on its own and as a New argument.

// NewBA returns a Brandenburg–Anderson PF-Q phase-fair lock — the compact
// centralized lock the paper calls "BA" and uses as BRAVO's main substrate.
func NewBA() RWLock { return new(pfq.Lock) }

// NewPFT returns the Brandenburg–Anderson phase-fair ticket lock (PF-T).
func NewPFT() RWLock { return new(pft.Lock) }

// NewPthread returns a POSIX-style reader-preference blocking lock.
func NewPthread() RWLock { return ptl.New() }

// NewGoRW adapts sync.RWMutex to the RWLock interface.
func NewGoRW() RWLock { return new(stdrw.Lock) }

// NewMutexRW presents a plain mutex as a degenerate reader-writer lock, for
// the BRAVO-over-mutex variant (§7).
func NewMutexRW() RWLock { return new(mutexrw.Lock) }

// NewFair returns a ticket-based fair (FIFO) reader-writer lock: strict
// arrival order, no starvation in either direction, and none of BRAVO's
// read-side scalability. It is registered as "fair" in the lock registry,
// and as "adaptive-fair" under an adaptive BRAVO lock, whose unbiased phase
// is then FIFO.
func NewFair() RWLock { return new(fairrw.Lock) }

// Adaptive per-lock biasing. An adaptive Lock is a BRAVO lock whose policy
// is a BiasAdaptor: it watches the lock's read/write mix (as reported by the
// owner through Offer) and flips between biased (BRAVO fast paths on) and
// neutral (bias withheld: the underlying lock's admission, FIFO over
// NewFair), generalizing the paper's static inhibit multiplier into a closed
// loop with hysteresis — see internal/bias.

// BiasMode is an adaptive lock's current operating mode.
type BiasMode = bias.Mode

// Adaptive bias modes.
const (
	BiasModeBiased  = bias.ModeBiased
	BiasModeNeutral = bias.ModeNeutral
)

// AdaptiveThresholds parameterizes the hysteresis band: the biased mode's
// enter/exit read ratios (default ≥ 0.90 / < 0.80), the sampling window
// (4096) and the paper's inhibit multiplier N (9). Zero fields take defaults.
type AdaptiveThresholds = bias.Thresholds

// BiasAdaptor is the adaptive bias policy (Lock.Adaptor returns it); owners
// feed it cumulative read/write counts via Offer and read Mode/Snapshot.
type BiasAdaptor = bias.Adaptor

// BiasAdaptorSnapshot is a coherent point-in-time view of one adaptor.
type BiasAdaptorSnapshot = bias.AdaptorSnapshot

// NewAdaptive returns under as an adaptive BRAVO lock at default
// thresholds. A *Lock argument (a bravo.New result) keeps its table, stats
// and other options and has the adaptive policy installed, so it must not be
// shared yet; any other lock is wrapped with New first.
func NewAdaptive(under RWLock) *Lock {
	return NewAdaptiveWithThresholds(under, AdaptiveThresholds{})
}

// NewAdaptiveWithThresholds is NewAdaptive with an explicit hysteresis band.
func NewAdaptiveWithThresholds(under RWLock, th AdaptiveThresholds) *Lock {
	l, ok := under.(*Lock)
	if !ok {
		l = New(under)
	}
	l.Engine().SetPolicy(bias.NewAdaptor(th))
	return l
}

// Topology describes a sockets × cores × SMT machine shape for the
// topology-sized locks below. BRAVO itself is topology-oblivious.
type Topology = topo.Topology

// Reference topologies: the paper's user-space (X5-2) and kernel (X5-4)
// machines, and the current host.
var (
	TopologyX52 = topo.X52
	TopologyX54 = topo.X54
)

// HostTopology returns a topology sized to the running process.
func HostTopology() Topology { return topo.Host() }

// NewPerCPU returns a brlock-style per-CPU distributed lock (large
// footprint, maximal read scalability, expensive writers).
func NewPerCPU(t Topology) RWLock { return percpu.New(t) }

// NewCohortRW returns the NUMA-aware C-RW-WP cohort reader-writer lock.
func NewCohortRW(t Topology) RWLock { return cohort.New(t) }

// Sharded key-value engine. ShardedKV stripes a hash keyspace across a
// power-of-two number of shards, each guarded by its own reader-writer lock
// from the supplied constructor — the scale-out workload the paper's
// rocksdb experiments point at (one GetLock stripe is their bottleneck;
// here the stripe count and the lock substrate are both free axes). Read
// paths accept an optional Reader handle (GetH/GetIntoH/MultiGetH): one
// pinned identity per request, cached-slot fast paths on every shard.
// Writes batch (MultiPut/MultiDelete: one write-lock acquisition per shard
// group) or coalesce asynchronously (PutAsync/Flush), and keys may carry a
// TTL (PutTTL, lazily expired on read and incrementally removed by Reap).
// Built over adaptive locks (NewAdaptive), each shard self-tunes its bias
// mode from its own traffic, and per-shard modes surface in Stats.
// cmd/kvserv serves this engine over HTTP.
type ShardedKV = kvs.Sharded

// ShardedKVStats aggregates a ShardedKV's per-shard operation counters.
type ShardedKVStats = kvs.ShardedStats

// ShardKVStats summarizes one shard (or, via Total, a whole engine).
type ShardKVStats = kvs.ShardStats

// NewShardedKV returns a sharded KV engine with the given number of shards
// (a positive power of two), each guarded by a fresh lock from mkLock —
// e.g. func() bravo.RWLock { return bravo.New(bravo.NewBA()) } for a
// BRAVO-striped engine whose shards share the process-wide readers table.
func NewShardedKV(shards int, mkLock func() RWLock) (*ShardedKV, error) {
	return kvs.NewSharded(shards, mkLock)
}

// Multi-key transactions. ShardedKV.Txn runs a caller-supplied body against
// an up-to-MaxTxnKeys key set with full atomicity and isolation: every
// participant shard's write lock (and, on durable engines, WAL) is held in
// ascending shard order for the duration — two-phase locking over a total
// lock order, so transactions cannot deadlock each other or the engine's
// own batched-write paths. Committed cross-shard transactions are logged as
// witness records carried by every participant shard, so recovery,
// replication, and failover all preserve atomicity (a torn commit is rolled
// forward from any surviving copy). CompareAndSwap and Update are the
// common single-key special cases.

// KVTx is the transaction handle passed to a ShardedKV.Txn body: staged
// reads and writes over the declared key set.
type KVTx = kvs.Tx

// MaxTxnKeys bounds the distinct keys one transaction may declare.
const MaxTxnKeys = kvs.MaxTxnKeys

// Transaction sentinel errors.
var (
	// ErrTxnNoKeys is returned by Txn when the key set is empty.
	ErrTxnNoKeys = kvs.ErrTxnNoKeys
	// ErrTxnTooManyKeys is returned by Txn when the key set exceeds
	// MaxTxnKeys distinct keys.
	ErrTxnTooManyKeys = kvs.ErrTxnTooManyKeys
)

// SyncPolicy selects when a durable engine's write-ahead log fsyncs:
// SyncAlways pays one fsync per group-commit batch, SyncNone leaves
// flushing to the OS.
type SyncPolicy = kvs.SyncPolicy

// WAL sync policies for OpenShardedKV.
const (
	SyncNone   = kvs.SyncNone
	SyncAlways = kvs.SyncAlways
)

// OpenShardedKV opens (or creates) a durable sharded KV engine in dir.
// Every write appends to a per-shard write-ahead log before it is applied;
// the batched writes (MultiPut, MultiDelete, async-queue flushes) are one
// log record and — under SyncAlways — one fsync per shard group, the same
// amortize-the-slow-path move BRAVO makes for bias revocation. Reopening
// the directory recovers the latest Checkpoint snapshot plus the log tail,
// dropping a torn final record. Callers Close the engine on shutdown and
// Checkpoint to bound log growth. The directory's shard count is pinned by
// its MANIFEST: reopen with the count it was created with.
func OpenShardedKV(dir string, shards int, mkLock func() RWLock, policy SyncPolicy) (*ShardedKV, error) {
	return kvs.OpenSharded(dir, shards, mkLock, policy)
}

// FollowerKV is a read-only replica of a durable ShardedKV primary: it
// tails the primary's per-shard, LSN-stamped write-ahead log over HTTP
// (cmd/kvserv's GET /repl/stream) into an in-memory engine serving the
// same biased read fast paths. Reads go through Engine(); AppliedLSN and
// WaitMinLSN turn the primary's commit LSNs into read-your-writes
// barriers; Close stops tailing (the replica stays readable, frozen).
type FollowerKV = repl.Follower

// FollowerKVStats summarizes a follower's per-shard replication progress.
type FollowerKVStats = repl.Stats

// OpenFollowerKV connects to a replication primary — a kvserv started
// with -data-dir, at its base URL — sizes an in-memory replica to the
// primary's shard count (each shard guarded by a fresh lock from mkLock),
// and starts tailing its WAL streams. A fresh follower bootstraps through
// the stream itself: the primary sends a full-state snapshot frame when
// the requested history was checkpointed away, then the incremental tail.
// This is the macro form of BRAVO's read bias: reads fan out to replicas
// for the price of a bounded, explicit write-visibility delay, exactly as
// biased readers fan out to table slots for the price of revocation.
func OpenFollowerKV(primaryURL string, mkLock func() RWLock) (*FollowerKV, error) {
	return repl.Open(repl.Config{Primary: primaryURL, MkLock: mkLock})
}
