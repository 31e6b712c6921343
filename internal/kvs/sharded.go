package kvs

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bravolock/bravo/internal/arch"
	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/hash"
	"github.com/bravolock/bravo/internal/locks/seq"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/self"
)

// Sharded is a sharded key-value engine: the keyspace is striped across a
// power-of-two number of shards, each an independent hash table guarded by its
// own reader-writer lock from a caller-supplied factory. It is the
// scale-out form of the single-lock Memtable/HashCache substrates: with a
// BRAVO-wrapped lock per shard the read path is one CAS into the shared
// visible-readers table regardless of shard count, while writers only
// exclude readers of their own shard.
//
// Read paths accept an optional rwl.Reader handle (GetH, GetIntoH,
// MultiGetH): a request pins one identity on its handle and carries it
// across every shard it touches, so each shard lock's steady-state fast
// path is a cached-slot CAS — no per-shard, per-acquisition identity
// derivation or hashing. Handles are single-goroutine; give each worker or
// request its own.
//
// Every read — a Get, or one shard's group of a MultiGet — is one read
// section (kvShard.read): a seq-validated copy with no lock held, or after
// the attempt budget one under the shard's read lock. Either way values are
// copied out, so they stay valid while writers update cells in place; a
// MultiGet's values share one allocation.
//
// Writes: every mutation is an Entry and reaches its shard through one
// write section (write.go) — log, lock, apply, count. MultiPut and
// MultiDelete group their keys by shard and hand it each shard's group, so a
// group pays a single write-lock acquisition (write combining). Every write
// is applied before its call returns. Keys can carry a TTL (PutTTL):
// expired entries are invisible to every read path the instant the
// deadline passes (lazy expiry), and Reap incrementally removes them under
// the ordinary shard write locks — never a stop-the-world scan.
//
// Opened with OpenSharded the engine is persistent: every write appends to
// its shard's write-ahead log before applying, each of the batches above is
// one log record — and, under SyncAlways, one fsync (group commit; see
// wal.go) — Checkpoint bounds log growth with per-shard snapshots, and
// reopening the directory recovers snapshot + log tail.
type Sharded struct {
	shards []kvShard
	mask   uint64
	// Durability state (durable.go); zero-valued on volatile engines.
	dir     string
	durable bool
	policy  SyncPolicy
	// logPaths names each shard's live log ([0]) and rotated log ([1]),
	// computed once: a caught-up replication poll names its file on every
	// call.
	logPaths [][2]string
	ckptMu   sync.Mutex
	// ckptFlushHook (tests only) runs where captureShard flushes unlocked.
	ckptFlushHook func(i int)
	// replReadHook (tests only) runs between ReplRead's file reads and its
	// generation re-check.
	replReadHook func(shard int)
	// reapCursor round-robins Reap's starting shard across calls, so an
	// incremental budget eventually covers every shard.
	reapCursor atomic.Uint64
	// seqAttempts is the optimistic read attempt budget per read before
	// falling back to the shard read lock; 0 disables the optimistic path.
	seqAttempts atomic.Int32
}

// kvShard is one shard of the keyspace: a lock, its store, and its operation
// counters.
// Shards are sector-padded so one shard's lock and counter traffic does not
// false-share with its neighbours.
type kvShard struct {
	// What a lock-free read loads leads the struct: the section counter, the
	// stripe pick's two inputs, and (first in seqStore) the table pointer.
	//
	// seqc is the write-section counter: even when quiescent, odd while a
	// writer is inside. Optimistic reads bracket their lock-free copies
	// with it.
	seqc seq.Count
	// index is the shard's position in the engine: the lock half of the
	// (thread, lock) hash that picks a reader's stripe.
	index uintptr
	// reads holds the counters a read bumps, striped so that concurrent
	// readers of one shard write different sectors (see readStripe).
	reads []readStripe
	// seqStore is the shard's keyed storage: the key→cell table and the set
	// of TTL'd keys, mutated only between wlock and wunlock.
	seqStore
	// lock is the lock the caller's factory built, called directly. Write
	// sections are opened and closed only through wlock/wunlock, which
	// bracket them with seqc — the structural guarantee that every mutation
	// site bumps the sequence, which the optimistic read path's validation
	// depends on (TestShardWriteLockOnlyThroughWlock holds the line).
	lock rwl.RWLock
	// hlock is lock's handle-accepting view, nil when the lock does not
	// implement rwl.HandleRWLock. Resolved once at construction so the read
	// hot paths pay a nil check, not a type assertion, per acquisition.
	hlock rwl.HandleRWLock
	// wal is the shard's write-ahead log, nil on volatile engines. Its
	// mutex orders before lock: writers append (and fsync) before applying.
	wal *shardWAL
	// ad is the shard lock's bias adaptor, nil unless the factory built a
	// lock whose policy is one. The shard feeds it the read/write counters it already
	// maintains (adaptTick), closing the per-shard bias feedback loop.
	ad  *bias.Adaptor
	ops shardOps
	_   arch.SectorPad
}

// The counters a read bumps, by their index in a readStripe.
const (
	rdGets = iota
	rdGetMisses
	rdBatches
	rdBatchKeys
	// rdLocked counts read sections (a Get, or one MultiGet shard group)
	// served under the shard read lock, whether the optimistic path was
	// disabled or exhausted; every other read section was a seq read.
	rdLocked
	rdSeqRetries
	rdSeqFallbacks
	rdExpired
	rdCounters
)

// readStripe is one sector of read-side counters. A read is the engine's
// only operation that holds no lock, so its bookkeeping is the one write
// concurrent readers of a shard could share; each reader instead bumps the
// stripe its identity hashes to on that shard — the visible readers table's
// (thread, lock) diffusion, so two readers that collide on one shard do not
// collide on all — and Stats and adaptTick sum the stripes. A shard's
// stripes are a power-of-two run of pointer-free sectors allocated on their
// own, which the allocator places sector-aligned; the package uses unsafe
// only for cells and prefetch hints, so that is pinned by
// TestReadStripesShareNoLine, not computed here.
type readStripe struct {
	n [rdCounters]atomic.Uint64
	_ [arch.SectorSize - rdCounters*8]byte
}

// readStripes is the per-shard stripe count: the power of two giving every
// P at least four stripes, and no fewer than 8. With four per P a reader
// shares its stripe on a given shard with probability ≈ 1 − e^(−1/4).
func readStripes() int {
	n := 8
	for n < 4*runtime.GOMAXPROCS(0) {
		n *= 2
	}
	return n
}

// stripe picks the calling reader's stripe: by its handle's pinned identity
// when it passed one, by its goroutine's otherwise.
func (sh *kvShard) stripe(h *rwl.Reader) *readStripe {
	var id uint64
	if h != nil {
		id = h.ID()
	} else {
		id = self.ID()
	}
	return &sh.reads[hash.Index(sh.index, id, uint32(len(sh.reads)))]
}

// readTotal sums counter c over the shard's stripes.
func (sh *kvShard) readTotal(c int) (n uint64) {
	for i := range sh.reads {
		n += sh.reads[i].n[c].Load()
	}
	return n
}

// adaptTickMask samples the adaptor feed: roughly every 256th operation per
// shard offers the cumulative counts (Adaptor.Offer is a counter compare
// mid-window, so the feed costs nothing on the per-op path and one window
// evaluation per few thousand ops).
const adaptTickMask = 255

// adaptTick offers the shard's cumulative read/write counts to its adaptor
// on a sampled cadence. n is the op-counter value the caller just produced
// (a reader's is its stripe's, so each stripe samples its own traffic; a
// write's is applyLocked's last total); callers invoke this outside the
// shard lock. Txn, which releases several shards at once, does not tick: the
// counts offered are cumulative, so a skipped tick delays a window
// evaluation and loses nothing.
func (sh *kvShard) adaptTick(n uint64) {
	if n&adaptTickMask == 0 && sh.ad != nil {
		reads := sh.readTotal(rdGets) + sh.readTotal(rdBatchKeys)
		writes := sh.ops.puts.Load() + sh.ops.deletes.Load()
		sh.ad.Offer(reads, writes)
	}
}

// wlock acquires the shard's write lock and opens the write section
// (sequence odd).
func (sh *kvShard) wlock() {
	sh.lock.Lock()
	sh.seqc.WriteBegin()
}

// wunlock closes the write section (sequence even) and releases the write
// lock.
func (sh *kvShard) wunlock() {
	sh.seqc.WriteEnd()
	sh.lock.Unlock()
}

// rlock acquires the shard's read lock, through the handle when both the
// caller supplied one and the lock supports it.
func (sh *kvShard) rlock(h *rwl.Reader) rwl.Token {
	if h != nil && sh.hlock != nil {
		return sh.hlock.RLockH(h)
	}
	return sh.lock.RLock()
}

// runlock releases a read acquisition made by rlock with the same handle.
func (sh *kvShard) runlock(h *rwl.Reader, tok rwl.Token) {
	if h != nil && sh.hlock != nil {
		sh.hlock.RUnlockH(h, tok)
		return
	}
	sh.lock.RUnlock(tok)
}

// shardOps counts the operations that take the shard's write lock (or run
// rarely); what a read bumps lives in the shard's readStripes. Counters are
// atomics read without the shard lock, so they are eventually consistent
// with the data, never exact even under all locks; the hot paths pay one
// atomic add each by counting the rare outcome — misses, fresh inserts,
// reads that took the lock — and deriving hits, in-place updates and seq
// reads in Stats. The put and delete counters (the first four, and expired)
// are applyLocked's alone.
type shardOps struct {
	puts      atomic.Uint64
	putsFresh atomic.Uint64
	deletes   atomic.Uint64
	delMisses atomic.Uint64
	// wbatches/wbatchKeys count combined write applications: one batch per
	// shard group applied by MultiPut, MultiDelete, a transaction or a
	// replicated record.
	wbatches   atomic.Uint64
	wbatchKeys atomic.Uint64
	// txnCommits/txnAborts count transactions that touched the shard (as a
	// read or write participant) and committed or aborted; txnKeys counts
	// the staged writes transactions applied to this shard. A transaction
	// spanning k shards bumps the commit counter on each of the k.
	txnCommits atomic.Uint64
	txnAborts  atomic.Uint64
	txnKeys    atomic.Uint64
	// expired counts lazy TTL observations by deletes: a resident entry
	// found past its deadline and treated as a miss (reads count theirs in
	// rdExpired). reaped counts entries Reap physically removed.
	expired   atomic.Uint64
	reaped    atomic.Uint64
	snapshots atomic.Uint64
	// checkpoints counts completed durable checkpoints of this shard; the
	// WAL's own counters live on shardWAL.
	checkpoints atomic.Uint64
}

// ShardStats is a point-in-time summary of one shard (or, via Total, of the
// whole engine).
//
// One counting rule for writes: Puts, PutsInPlace, Deletes and DeleteHits
// count every entry applied to the shard, wherever it came from — a local
// call, a transaction, a replicated record on a follower, a snapshot or log
// entry replayed when a durable engine reopens, a commit rolled forward. All
// go through applyLocked, so a reopened or promoted engine starts with the
// counts of what recovery applied, not at zero, and PutsInPlace <= Puts and
// DeleteHits <= Deletes hold on every engine at every instant.
type ShardStats struct {
	Keys            int    `json:"keys"`
	TTLKeys         int    `json:"ttl_keys"`
	Gets            uint64 `json:"gets"`
	GetHits         uint64 `json:"get_hits"`
	Puts            uint64 `json:"puts"`
	PutsInPlace     uint64 `json:"puts_in_place"`
	Deletes         uint64 `json:"deletes"`
	DeleteHits      uint64 `json:"delete_hits"`
	MultiGetBatches uint64 `json:"multi_get_batches"`
	MultiGetKeys    uint64 `json:"multi_get_keys"`
	// WriteBatches/WriteBatchKeys count combined write applications (one
	// batch per shard group from MultiPut, MultiDelete, a transaction or a
	// replicated record); the keys they carried are also counted in
	// Puts/Deletes.
	WriteBatches   uint64 `json:"write_batches"`
	WriteBatchKeys uint64 `json:"write_batch_keys"`
	// SeqReads counts read sections served by the optimistic zero-CAS path
	// (one per Get/GetInto, one per MultiGet shard group); SeqRetries
	// counts attempts that collided with a writer and were discarded;
	// SeqFallbacks counts reads that exhausted the attempt budget and took
	// the shard read lock instead. Gets/GetHits count those reads too —
	// the seq counters classify how reads were served, not extra traffic.
	SeqReads     uint64 `json:"seq_reads"`
	SeqRetries   uint64 `json:"seq_retries"`
	SeqFallbacks uint64 `json:"seq_fallbacks"`
	// TxnCommits/TxnAborts count transactions that touched the shard and
	// committed or aborted (a k-shard transaction counts on each of its k
	// participants); TxnKeys counts the staged writes they applied here.
	TxnCommits uint64 `json:"txn_commits"`
	TxnAborts  uint64 `json:"txn_aborts"`
	TxnKeys    uint64 `json:"txn_keys"`
	// Expired counts lazy TTL observations (reads and deletes that found an
	// entry past its deadline); Reaped counts entries Reap removed.
	Expired   uint64 `json:"expired"`
	Reaped    uint64 `json:"reaped"`
	Snapshots uint64 `json:"snapshots"`
	// WAL counters (zero on volatile engines). WALRecords is appended
	// group-commit records, WALKeys the entries they carried —
	// WALKeys/WALRecords is the achieved group-commit batch size. WALSyncs
	// counts fsyncs, WALBytes bytes appended, WALErrors append/sync
	// failures (the engine keeps serving from memory; see WALError), and
	// Checkpoints completed snapshot checkpoints.
	WALRecords  uint64 `json:"wal_records"`
	WALKeys     uint64 `json:"wal_keys"`
	WALSyncs    uint64 `json:"wal_syncs"`
	WALBytes    uint64 `json:"wal_bytes"`
	WALErrors   uint64 `json:"wal_errors"`
	Checkpoints uint64 `json:"checkpoints"`
	// BiasMode is the shard lock's current bias posture ("biased" or
	// "neutral"), empty when the shard lock carries no adaptor;
	// Total/Add report "mixed" when shards disagree. BiasFlips counts mode
	// changes. Both are captured under the adaptor's seq bracket
	// (bias.Adaptor.Snapshot), so one stats row can never pair a mode with
	// flip/window counters from a different instant.
	BiasMode  string `json:"bias_mode,omitempty"`
	BiasFlips uint64 `json:"bias_flips,omitempty"`
}

// Add folds o into s: cross-engine aggregation, e.g. a cluster front-end
// totaling its partitions.
func (s *ShardStats) Add(o ShardStats) { s.add(o) }

// add folds o into s.
func (s *ShardStats) add(o ShardStats) {
	s.Keys += o.Keys
	s.TTLKeys += o.TTLKeys
	s.Gets += o.Gets
	s.GetHits += o.GetHits
	s.Puts += o.Puts
	s.PutsInPlace += o.PutsInPlace
	s.Deletes += o.Deletes
	s.DeleteHits += o.DeleteHits
	s.MultiGetBatches += o.MultiGetBatches
	s.MultiGetKeys += o.MultiGetKeys
	s.WriteBatches += o.WriteBatches
	s.WriteBatchKeys += o.WriteBatchKeys
	s.SeqReads += o.SeqReads
	s.SeqRetries += o.SeqRetries
	s.SeqFallbacks += o.SeqFallbacks
	s.TxnCommits += o.TxnCommits
	s.TxnAborts += o.TxnAborts
	s.TxnKeys += o.TxnKeys
	s.Expired += o.Expired
	s.Reaped += o.Reaped
	s.Snapshots += o.Snapshots
	s.WALRecords += o.WALRecords
	s.WALKeys += o.WALKeys
	s.WALSyncs += o.WALSyncs
	s.WALBytes += o.WALBytes
	s.WALErrors += o.WALErrors
	s.Checkpoints += o.Checkpoints
	s.BiasFlips += o.BiasFlips
	switch {
	case s.BiasMode == "":
		s.BiasMode = o.BiasMode
	case o.BiasMode != "" && o.BiasMode != s.BiasMode:
		s.BiasMode = "mixed"
	}
}

// ShardedStats aggregates the per-shard summaries of a Sharded engine.
type ShardedStats struct {
	Shards []ShardStats `json:"shards"`
}

// Total folds every shard's summary into one.
func (st ShardedStats) Total() ShardStats {
	var t ShardStats
	for _, s := range st.Shards {
		t.add(s)
	}
	return t
}

// NewSharded returns a volatile engine with the given number of shards (a
// positive power of two), each guarded by a fresh lock from mkLock.
// OpenSharded builds a durable one.
func NewSharded(shards int, mkLock rwl.Factory) (*Sharded, error) {
	if shards <= 0 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("kvs: shard count %d is not a positive power of two", shards)
	}
	s := &Sharded{shards: make([]kvShard, shards), mask: uint64(shards - 1)}
	s.seqAttempts.Store(DefaultSeqReadAttempts)
	stripes := readStripes()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.index = uintptr(i)
		sh.reads = make([]readStripe, stripes)
		sh.lock = mkLock()
		sh.hlock, _ = sh.lock.(rwl.HandleRWLock)
		if al, ok := sh.lock.(interface{ Adaptor() *bias.Adaptor }); ok {
			sh.ad = al.Adaptor()
		}
	}
	return s, nil
}

// HandleCapable reports whether the shard locks accept reader handles.
func (s *Sharded) HandleCapable() bool { return s.shards[0].hlock != nil }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// ShardOf returns the index of the shard responsible for key.
func (s *Sharded) ShardOf(key uint64) int {
	return int(hash.Mix64(key) & s.mask)
}

func (s *Sharded) shardOf(key uint64) *kvShard {
	return &s.shards[hash.Mix64(key)&s.mask]
}

// Get returns a copy of the value stored under key.
func (s *Sharded) Get(key uint64) ([]byte, bool) {
	return s.getInto(nil, key, nil)
}

// GetH is Get through a reader handle: the request's identity is pinned on
// the handle, so the shard lock's fast path is a cached-slot CAS with no
// per-shard identity derivation or hashing.
func (s *Sharded) GetH(h *rwl.Reader, key uint64) ([]byte, bool) {
	return s.getInto(h, key, nil)
}

// GetInto is Get with caller-managed memory: the value is appended to
// buf[:0] (growing it only when too small) and the filled slice returned.
// On a miss the returned slice is buf[:0], so a worker that reuses its
// buffer across calls — hits and misses alike — reads without allocating.
func (s *Sharded) GetInto(key uint64, buf []byte) ([]byte, bool) {
	return s.getInto(nil, key, buf)
}

// GetIntoH is GetInto through a reader handle.
func (s *Sharded) GetIntoH(h *rwl.Reader, key uint64, buf []byte) ([]byte, bool) {
	return s.getInto(h, key, buf)
}

func (s *Sharded) getInto(h *rwl.Reader, key uint64, buf []byte) ([]byte, bool) {
	var val [1][]byte
	hits, out := s.shardOf(key).read(h, int(s.seqAttempts.Load()), rdGets, []uint64{key}, []shardPos{{}}, val[:], buf[:0])
	return out, hits == 1
}

// SetSeqReadAttempts sets the optimistic read attempt budget: how many
// lock-free seq-validated copies a read tries before taking the shard read
// lock. n <= 0 disables the optimistic path entirely (every read goes
// through the BRAVO lock, the pre-seqlock behavior); n > 0 bounds the
// retry loop, and a budget past MaxInt32 is MaxInt32. Safe to call at any
// time; the paper-figure benches and the handle fast-path tests disable it
// to keep measuring the locks.
func (s *Sharded) SetSeqReadAttempts(n int) {
	s.seqAttempts.Store(int32(max(0, min(n, math.MaxInt32))))
}

// SeqReadAttempts returns the current optimistic read attempt budget.
func (s *Sharded) SeqReadAttempts() int { return int(s.seqAttempts.Load()) }

// ShardAdaptor returns shard i's bias adaptor, or nil. Diagnostic: tests
// use it to force modes deterministically.
func (s *Sharded) ShardAdaptor(i int) *bias.Adaptor { return s.shards[i].ad }

// Put stores a copy of value under key, reusing the existing buffer in
// place when it fits (Memtable's rocksdb-style in-place update). A plain
// Put clears any TTL a previous PutTTL attached to the key.
func (s *Sharded) Put(key uint64, value []byte) {
	s.put(key, value, 0)
}

// PutTTL is Put with a time-to-live: the key expires (becomes invisible to
// reads) once ttl elapses, inclusively — exactly at the deadline counts as
// expired. Expired entries are removed by Reap or by a later write to the
// same key; until then they occupy memory but never satisfy a read. A
// non-positive ttl stores a value that is already expired.
func (s *Sharded) PutTTL(key uint64, value []byte, ttl time.Duration) {
	s.put(key, value, ttlDeadline(ttl))
}

// put is Put against an absolute clock.Nanos deadline (0 = none).
func (s *Sharded) put(key uint64, value []byte, deadline int64) {
	s.shardOf(key).write([]Entry{{Op: OpPut, Key: key, Deadline: deadline, Value: value}})
}

// Delete removes key, reporting whether it was (visibly) present. Deleting
// a TTL-expired entry removes the residue but reports false, matching what
// a reader would have observed.
func (s *Sharded) Delete(key uint64) bool {
	return s.shardOf(key).write([]Entry{{Op: OpDelete, Key: key}}) == 1
}

// MultiGet performs a batched lookup: keys are grouped by shard and each
// shard's group is one read section, not one per key. The result is
// parallel to keys; absent keys yield nil entries, present ones non-nil
// even when empty. The values are copies sharing one allocation, each
// capacity-clipped so an append to one reallocates rather than overwrite
// its neighbour.
func (s *Sharded) MultiGet(keys []uint64) [][]byte {
	return s.multiGet(nil, keys, nil)
}

// MultiGetH is MultiGet through a reader handle: one pinned identity covers
// every shard the batch touches, rather than a fresh derivation per shard
// lock acquisition.
func (s *Sharded) MultiGetH(h *rwl.Reader, keys []uint64) [][]byte {
	return s.multiGet(h, keys, nil)
}

// MultiGetIntoH is MultiGetH with a caller-reused result slice: when dst
// has capacity for the batch it is resliced and every position rewritten,
// so a serving loop's steady-state MGET does not allocate the
// slice-of-slices. The values are still copies, sharing one allocation per
// call as in MultiGet. Returns the filled slice, parallel to keys.
func (s *Sharded) MultiGetIntoH(h *rwl.Reader, keys []uint64, dst [][]byte) [][]byte {
	return s.multiGet(h, keys, dst)
}

func (s *Sharded) multiGet(h *rwl.Reader, keys []uint64, dst [][]byte) [][]byte {
	out := dst
	if cap(out) < len(keys) {
		out = make([][]byte, len(keys))
	}
	out = out[:len(keys)]
	var stack [32]shardPos // the grouping, on the stack for ordinary batches
	pairs := s.sortByShard(keys, stack[:0])
	// One arena holds the batch's values, sized by a lock-free look at the
	// cells — memory-safe for the reason an optimistic copy is. A value that
	// grows before its section copies it only grows the arena.
	size := 0
	for _, p := range pairs {
		if c := s.shards[p.shard].idx.lookup(keys[p.pos]); c != nil {
			size += c.length()
		}
	}
	arena := make([]byte, 0, size)
	att := int(s.seqAttempts.Load())
	for lo, hi := 0, 0; lo < len(pairs); lo = hi {
		hi = runEnd(pairs, lo)
		_, arena = s.shards[pairs[lo].shard].read(h, att, rdBatches, keys, pairs[lo:hi], out, arena)
	}
	return out
}

// MultiPut stores a copy of each values[i] under keys[i], grouping the
// batch by shard and applying each shard's group under a single write-lock
// acquisition — write combining: per key, the lock traffic (and, for
// BRAVO-wrapped shards, the bias revocation) is amortized across the
// group. Within one batch, later positions win duplicate keys. It panics
// when the slices disagree in length.
func (s *Sharded) MultiPut(keys []uint64, values [][]byte) {
	s.writeBatch(OpPut, keys, values, 0)
}

// MultiPutTTL is MultiPut with one time-to-live covering the whole batch,
// with PutTTL's semantics per key (so a non-positive ttl stores the batch
// born-expired).
func (s *Sharded) MultiPutTTL(keys []uint64, values [][]byte, ttl time.Duration) {
	s.writeBatch(OpPut, keys, values, ttlDeadline(ttl))
}

// MultiDelete removes the given keys, one write-lock acquisition per shard
// touched, and returns how many were visibly present (expired residues are
// removed but not counted, as in Delete).
func (s *Sharded) MultiDelete(keys []uint64) int {
	return s.writeBatch(OpDelete, keys, nil, 0)
}

// writeBatch is MultiPut and MultiDelete: it builds the batch's entries in
// shard order and hands each same-shard run to write — group commit: the run
// is one WAL record, one fsync under SyncAlways, one lock acquisition and one
// bias revocation, however many keys it carries. It returns the deletes that
// hit. The entries are the batch's one allocation; the (shard, position)
// pairs that order them stay on the stack for batches of ordinary size.
func (s *Sharded) writeBatch(op Op, keys []uint64, values [][]byte, deadline int64) (hits int) {
	if op == OpPut && len(keys) != len(values) {
		panic(fmt.Sprintf("kvs: MultiPut with %d keys but %d values", len(keys), len(values)))
	}
	var stack [32]shardPos
	pairs := s.sortByShard(keys, stack[:0])
	ents := make([]Entry, len(pairs))
	for i, p := range pairs {
		ents[i] = Entry{Op: op, Key: keys[p.pos], Deadline: deadline}
		if op == OpPut {
			ents[i].Value = values[p.pos]
		}
	}
	for lo, hi := 0, 0; lo < len(pairs); lo = hi {
		hi = runEnd(pairs, lo)
		sh := &s.shards[pairs[lo].shard]
		hits += sh.write(ents[lo:hi])
		sh.countBatch(hi - lo)
	}
	return hits
}

// shardPos pairs a shard index with a position in a batched operation.
type shardPos struct{ shard, pos int }

// sortByShard is the batched operations' shared key→shard grouping: it
// appends keys' (shard, position) pairs to buf and sorts them by shard.
// Stable, so positions stay ascending within a shard's run and duplicate
// keys in a MultiPut batch resolve later-position-wins.
func (s *Sharded) sortByShard(keys []uint64, buf []shardPos) []shardPos {
	for i, k := range keys {
		buf = append(buf, shardPos{shard: s.ShardOf(k), pos: i})
	}
	slices.SortStableFunc(buf, func(a, b shardPos) int { return a.shard - b.shard })
	return buf
}

// runEnd returns the end of the same-shard run of pairs that starts at lo.
func runEnd(pairs []shardPos, lo int) int {
	hi := lo + 1
	for hi < len(pairs) && pairs[hi].shard == pairs[lo].shard {
		hi++
	}
	return hi
}

// Len returns the total number of resident keys, visiting each shard under
// its read lock. The count includes TTL-expired entries that have not been
// reaped yet (they still occupy memory even though reads cannot see them).
func (s *Sharded) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		tok := sh.lock.RLock()
		n += sh.idx.live
		sh.lock.RUnlock(tok)
	}
	return n
}

// Range calls fn for every visible (unexpired) key/value pair. Each shard
// is visited atomically under its read lock; the engine-wide view is the
// concatenation of per-shard snapshots, not a global snapshot. The value
// slice passed to fn is a scratch buffer reused between calls and must not
// be retained or mutated after fn returns. Iteration stops early when fn
// returns false.
func (s *Sharded) Range(fn func(key uint64, value []byte) bool) {
	var scratch []byte
	for i := range s.shards {
		sh := &s.shards[i]
		tok := sh.lock.RLock()
		var now int64
		more := sh.idx.each(func(k uint64, c *seqCell) bool {
			if c.expired(&now) {
				return true
			}
			scratch = c.appendTo(scratch[:0])
			return fn(k, scratch)
		})
		sh.lock.RUnlock(tok)
		if !more {
			return
		}
	}
}

// SnapshotShard returns an atomic deep copy of one shard's visible
// (unexpired) contents.
func (s *Sharded) SnapshotShard(i int) map[uint64][]byte {
	sh := &s.shards[i]
	tok := sh.lock.RLock()
	out := make(map[uint64][]byte, sh.idx.live)
	var now int64
	sh.idx.each(func(k uint64, c *seqCell) bool {
		if !c.expired(&now) {
			out[k] = c.bytes()
		}
		return true
	})
	sh.lock.RUnlock(tok)
	sh.ops.snapshots.Add(1)
	return out
}

// DefaultReapBudget is Reap's per-call examination budget when the caller
// passes none: small enough that no shard write lock is held long, large
// enough that a modest reap cadence keeps up with expirations.
const DefaultReapBudget = 256

// Reap incrementally removes TTL-expired entries: it examines up to budget
// TTL-tracked entries (budget <= 0 means DefaultReapBudget), resuming
// round-robin at the shard after the previous call's, and deletes those
// whose deadlines have passed, returning the number removed. Each shard's
// work happens under that shard's ordinary write lock with the examination
// budget bounding the hold — there is no stop-the-world scan. Entries are
// drawn in Go's randomized map order, so repeated calls probabilistically
// cover a shard's TTL set even when it exceeds the budget; lazy expiry
// keeps not-yet-reaped entries invisible to readers regardless. Reap is
// safe to call concurrently with every other operation (and with itself).
// Reaping is not logged to the WAL: a recovered TTL entry replays as
// already-expired (deadlines persist as remaining time), so it stays
// invisible and is re-reaped — and checkpoints compact expired residue out
// of the snapshot entirely.
func (s *Sharded) Reap(budget int) int {
	if budget <= 0 {
		budget = DefaultReapBudget
	}
	reaped := 0
	for visited := 0; visited < len(s.shards) && budget > 0; visited++ {
		sh := &s.shards[(s.reapCursor.Add(1)-1)&s.mask]
		removed := 0
		leftover := false
		sh.wlock()
		if len(sh.exp) > 0 {
			var now int64
			examined := 0
			for k := range sh.exp {
				if examined >= budget {
					break
				}
				examined++
				if sh.idx.lookup(k).expired(&now) { // every key in exp has a cell
					// Reaping is a mutation site like any other,
					// bracketed by the shard write section.
					sh.removeLocked(k)
					removed++
				}
			}
			// The budget ran out with TTL entries still unexamined: the
			// shard's TTL set is larger than what this call could cover.
			// (Counted under the lock — a concurrent delete can shrink exp
			// below the cursor's expectations the instant it is released,
			// which is why this is a point-in-time hint, not a claim.)
			leftover = examined >= budget && len(sh.exp) > examined-removed
			budget -= examined
		}
		sh.wunlock()
		if removed > 0 {
			sh.ops.reaped.Add(uint64(removed))
			reaped += removed
		}
		if leftover && budget <= 0 {
			// Rewind the cursor so the next call resumes at this shard
			// rather than skipping its unexamined tail for a full
			// round-robin cycle. Racing Reap calls make the step a
			// heuristic either way; randomized map order keeps repeated
			// visits covering different entries.
			s.reapCursor.Add(^uint64(0))
		}
	}
	return reaped
}

// Snapshot returns a deep copy of the whole engine, shard by shard. Each
// shard is copied atomically; the union is only per-shard consistent.
func (s *Sharded) Snapshot() map[uint64][]byte {
	out := make(map[uint64][]byte, s.Len())
	for i := range s.shards {
		for k, v := range s.SnapshotShard(i) {
			out[k] = v
		}
	}
	return out
}

// Stats returns the per-shard operation counters and key counts.
func (s *Sharded) Stats() ShardedStats {
	st := ShardedStats{Shards: make([]ShardStats, len(s.shards))}
	for i := range s.shards {
		sh := &s.shards[i]
		tok := sh.lock.RLock()
		keys := sh.idx.live
		ttlKeys := len(sh.exp)
		sh.lock.RUnlock(tok)
		// Load each rare counter before its total — for the read counters,
		// across every stripe before the total's first stripe: every op
		// bumps the total first (Get/Put/Delete), so rare <= total holds at
		// every instant, and loading rare first keeps the derived counts
		// from underflowing when snapshotting under load.
		getMisses, locked := sh.readTotal(rdGetMisses), sh.readTotal(rdLocked)
		gets, batches := sh.readTotal(rdGets), sh.readTotal(rdBatches)
		putsFresh := sh.ops.putsFresh.Load()
		puts := sh.ops.puts.Load()
		delMisses := sh.ops.delMisses.Load()
		deletes := sh.ops.deletes.Load()
		st.Shards[i] = ShardStats{
			Keys:            keys,
			TTLKeys:         ttlKeys,
			Gets:            gets,
			GetHits:         gets - getMisses,
			Puts:            puts,
			PutsInPlace:     puts - putsFresh,
			Deletes:         deletes,
			DeleteHits:      deletes - delMisses,
			MultiGetBatches: batches,
			MultiGetKeys:    sh.readTotal(rdBatchKeys),
			WriteBatches:    sh.ops.wbatches.Load(),
			WriteBatchKeys:  sh.ops.wbatchKeys.Load(),
			SeqReads:        gets + batches - locked,
			SeqRetries:      sh.readTotal(rdSeqRetries),
			SeqFallbacks:    sh.readTotal(rdSeqFallbacks),
			TxnCommits:      sh.ops.txnCommits.Load(),
			TxnAborts:       sh.ops.txnAborts.Load(),
			TxnKeys:         sh.ops.txnKeys.Load(),
			Expired:         sh.ops.expired.Load() + sh.readTotal(rdExpired),
			Reaped:          sh.ops.reaped.Load(),
			Snapshots:       sh.ops.snapshots.Load(),
			Checkpoints:     sh.ops.checkpoints.Load(),
		}
		if w := sh.wal; w != nil {
			st.Shards[i].WALRecords = w.records.Load()
			st.Shards[i].WALKeys = w.keys.Load()
			st.Shards[i].WALSyncs = w.syncs.Load()
			st.Shards[i].WALBytes = w.bytes.Load()
			st.Shards[i].WALErrors = w.errs.Load()
		}
		if sh.ad != nil {
			// One coherent bracket for mode + flips: a concurrent flip can
			// delay this snapshot but never tear it.
			snap := sh.ad.Snapshot()
			st.Shards[i].BiasMode = snap.Mode.String()
			st.Shards[i].BiasFlips = snap.Flips
		}
	}
	return st
}
