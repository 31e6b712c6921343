package kvs

// Durability wiring: the data-directory layout, recovery, and Close. A
// durable engine's directory holds
//
//	MANIFEST           {"version":1,"shards":N} — pins the shard layout
//	shard-NNNN.snap    latest checkpoint of shard N (optional)
//	shard-NNNN.wal     records appended since that checkpoint
//	shard-NNNN.wal.old mid-checkpoint generation (crash artifact, replayed)
//
// Recovery invariant: shard N's state is
//
//	replay(snapshot, wal.old, wal-up-to-last-valid-record)
//
// in that order, with the wal's torn tail truncated before new appends.
// Keys are assigned to shards by hash, so the layout is only meaningful at
// the shard count that produced it — the MANIFEST records it and reopening
// with a different count is an error, not silent misrouting.

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"github.com/bravolock/bravo/internal/rwl"
)

// OpenSharded opens (or creates) a durable engine in dir: state lives in dir
// (created if missing), every write is logged before it is applied, and
// policy says when the log fsyncs. On a non-empty directory it replays the
// latest snapshot and the log tail written since, tolerating a torn final
// record. Pair with Close on shutdown and Checkpoint to bound log growth.
func OpenSharded(dir string, shards int, mkLock rwl.Factory, policy SyncPolicy) (*Sharded, error) {
	s, err := NewSharded(shards, mkLock)
	if err != nil {
		return nil, err
	}
	if err := s.openDurable(dir, policy); err != nil {
		return nil, err
	}
	return s, nil
}

// Durable reports whether the engine writes a WAL.
func (s *Sharded) Durable() bool { return s.durable }

// Dir returns the data directory, empty for volatile engines.
func (s *Sharded) Dir() string { return s.dir }

// SyncPolicy returns the WAL sync policy; SyncNone for volatile engines.
func (s *Sharded) SyncPolicy() SyncPolicy { return s.policy }

// WALError returns the first WAL write, sync, or rotation error any shard
// has recorded, or nil. The engine keeps serving from memory after a WAL
// error; callers that need hard durability poll this (kvserv surfaces it
// in /stats).
func (s *Sharded) WALError() error {
	if !s.durable {
		return nil
	}
	for i := range s.shards {
		w := s.shards[i].wal
		// The errs counter is the lock-free gate: writers hold mu across
		// fsync, so blindly locking here would stall a stats poll (and the
		// writers behind it) on every busy shard.
		if w.errs.Load() == 0 {
			continue
		}
		w.mu.Lock()
		err := w.err
		w.mu.Unlock()
		if err != nil {
			return fmt.Errorf("kvs: shard %d wal: %w", i, err)
		}
	}
	return nil
}

// Close, on durable engines, trims, syncs and closes every shard's log.
// The engine must not be written after Close (late writes are counted as
// WAL errors and survive only in memory). Close is idempotent.
func (s *Sharded) Close() error {
	if !s.durable {
		return nil
	}
	var first error
	for i := range s.shards {
		w := s.shards[i].wal
		w.mu.Lock()
		if !w.closed {
			w.closed = true
			if err := w.trim(); err != nil && first == nil {
				first = err
			}
			if err := w.f.Sync(); err != nil && first == nil {
				first = err
			}
			if err := w.f.Close(); err != nil && first == nil {
				first = err
			}
		}
		if first == nil {
			first = w.err
		}
		w.mu.Unlock()
	}
	return first
}

// manifest pins the directory's shard layout.
type manifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

const manifestName = "MANIFEST"

// openDurable attaches a WAL to every shard of a freshly-built engine,
// recovering any state already in dir. Runs before the engine is shared,
// so it touches the maps without locks.
func (s *Sharded) openDurable(dir string, policy SyncPolicy) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	s.dir, s.durable, s.policy = dir, true, policy
	s.logPaths = make([][2]string, len(s.shards))
	for i := range s.logPaths {
		wal := filepath.Join(dir, fmt.Sprintf("shard-%04d.wal", i))
		s.logPaths[i] = [2]string{wal, wal + ".old"}
	}
	if err := s.checkManifest(); err != nil {
		return err
	}
	var needCkpt []int
	// txns gathers multi-shard transaction witness records across every
	// shard's replay, keyed by the transaction's identity (see
	// walRecord.txnKey), so a commit torn across shard logs can be rolled
	// forward once all logs have been read.
	txns := make(map[walPart]*txnRecovery)
	for i := range s.shards {
		sh := &s.shards[i]
		// A .snap.tmp is an interrupted, unpublished checkpoint: garbage.
		_ = os.Remove(s.snapPath(i) + ".tmp")
		// last tracks the highest LSN recovered across snapshot, wal.old,
		// and wal, in replay order; the reopened log continues from it.
		// Legacy v1 records carry no LSN and are assigned sequential ones
		// continuing from last — the in-place upgrade path.
		var last uint64
		if data, err := os.ReadFile(s.snapPath(i)); err == nil {
			entries, snapLSN, err := loadSnapshot(data)
			if err != nil {
				return fmt.Errorf("kvs: shard %d snapshot: %w", i, err)
			}
			sh.idx.reserve(len(entries))
			sh.applyLocked(entries)
			last = snapLSN
		} else if !os.IsNotExist(err) {
			return err
		}
		if data, err := os.ReadFile(s.walOldPath(i)); err == nil {
			_, last = walReplay(data, last, func(rec walRecord) { s.recoverShardRecord(i, rec, txns) })
			needCkpt = append(needCkpt, i)
		} else if !os.IsNotExist(err) {
			return err
		}
		walSize := int64(0)
		if data, err := os.ReadFile(s.walPath(i)); err == nil {
			var valid int
			valid, last = walReplay(data, last, func(rec walRecord) { s.recoverShardRecord(i, rec, txns) })
			walSize = int64(valid)
		} else if !os.IsNotExist(err) {
			return err
		}
		f, err := openLog(s.walPath(i))
		if err != nil {
			return err
		}
		sh.wal = &shardWAL{f: f, policy: policy, size: walSize, lsn: last}
		sh.wal.applied.Store(last)
		sh.wal.end.Store(walSize)
		// Drop the torn tail before appending after it: a new record
		// written beyond torn bytes would be unreachable at replay.
		if err := sh.wal.trim(); err != nil {
			return err
		}
	}
	// Restore transaction atomicity before anything else appends: any
	// multi-shard commit witnessed by one surviving shard log but missing
	// from another participant's is re-applied and re-logged there.
	if err := s.rollForwardTxns(txns); err != nil {
		return err
	}
	// Make the freshly-created log files' directory entries durable: an
	// fsynced record is worthless if the file itself vanishes with the
	// unsynced directory on power loss.
	if err := syncDir(dir); err != nil {
		return err
	}
	// A leftover .wal.old means a checkpoint died mid-flight; re-running it
	// now collapses the three-file state back to snapshot + empty log.
	if err := s.checkpointShards(needCkpt); err != nil {
		return fmt.Errorf("kvs: recovering an interrupted checkpoint: %w", err)
	}
	return nil
}

// checkManifest validates the layout pin, writing it on first use.
func (s *Sharded) checkManifest() error {
	path := filepath.Join(s.dir, manifestName)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if s.hasShardFiles() {
			return fmt.Errorf("kvs: %s has shard files but no %s", s.dir, manifestName)
		}
		return writeManifest(s.dir, len(s.shards))
	}
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("kvs: parsing %s: %w", path, err)
	}
	if m.Version != 1 {
		return fmt.Errorf("kvs: %s version %d not understood", path, m.Version)
	}
	if m.Shards != len(s.shards) {
		return fmt.Errorf("kvs: %s was written with %d shards, reopened with %d — keys are sharded by hash, so the layout is not portable across shard counts", s.dir, m.Shards, len(s.shards))
	}
	return nil
}

// writeManifest publishes the layout pin atomically and durably.
func writeManifest(dir string, shards int) error {
	buf, _ := json.Marshal(manifest{Version: 1, Shards: shards})
	if err := publishFile(filepath.Join(dir, manifestName), append(buf, '\n')); err != nil {
		return err
	}
	return syncDir(dir)
}

// hasShardFiles reports whether dir already holds shard state.
func (s *Sharded) hasShardFiles() bool {
	for _, pat := range []string{"shard-*.wal", "shard-*.snap"} {
		if m, _ := filepath.Glob(filepath.Join(s.dir, pat)); len(m) > 0 {
			return true
		}
	}
	return false
}

// txnRecovery accumulates one multi-shard transaction's witness copies as
// recovery replays each shard's log: which participants' copies were found,
// plus the full entry list (identical in every copy) in case a missing
// participant must be rolled forward. Entry values alias the replay buffer,
// which stays live for the duration of openDurable.
type txnRecovery struct {
	parts   []walPart
	entries []Entry
	seen    []bool
}

// recoverShardRecord applies one replayed record to shard through
// applyLocked, the live paths' apply half — so the optimistic read path is
// coherent from the first post-recovery read, and a replayed entry is counted
// like any other. No lock and no wlock/wunlock bracket: the engine is not yet
// shared, so no reader exists to mislead. Ordinary records apply wholesale;
// transaction witness records apply only the entries owned by this shard and
// register the copy in txns for the post-replay atomicity check.
func (s *Sharded) recoverShardRecord(shard int, rec walRecord, txns map[walPart]*txnRecovery) {
	sh := &s.shards[shard]
	if rec.version != walVersionTxn {
		sh.applyLocked(rec.entries)
		return
	}
	sh.applyLocked(s.ownedBy(rec.entries, shard))
	t := txns[rec.txnKey()]
	if t == nil {
		t = &txnRecovery{parts: rec.parts, entries: rec.entries, seen: make([]bool, len(rec.parts))}
		txns[rec.txnKey()] = t
	}
	for i, p := range t.parts {
		if int(p.shard) == shard {
			t.seen[i] = true
		}
	}
}

// rollForwardTxns restores cross-shard commit atomicity after replay: for
// every transaction some participant's log witnessed but another's did not,
// the missing participant's own entries are applied to its in-memory state
// and the witness record is re-appended to its log at whatever LSN the
// shard actually reached (not the LSN the original commit intended — a
// lost un-synced tail may have taken unrelated records with it). Re-
// appending the witness itself, rather than a plain record, is what makes
// the repair converge: the next recovery sees the copy and marks the
// participant satisfied, so a roll-forward can never replay over writes
// that landed after the repair. A participant whose recovered LSN already
// passed its copy's intended LSN lost nothing — its checkpoint compacted
// the record away — and is skipped. When one shard misses several
// transactions, they are replayed in the order that shard originally
// committed them, which the witness list's per-participant LSNs record.
func (s *Sharded) rollForwardTxns(txns map[walPart]*txnRecovery) error {
	type missed struct {
		lsn uint64
		t   *txnRecovery
	}
	var byShard map[int][]missed
	for _, t := range txns {
		for i, p := range t.parts {
			if t.seen[i] {
				continue
			}
			j := int(p.shard)
			if j >= len(s.shards) {
				return fmt.Errorf("kvs: transaction witness names shard %d of %d", j, len(s.shards))
			}
			if s.shards[j].wal.lsn >= p.lsn {
				continue
			}
			if byShard == nil {
				byShard = make(map[int][]missed)
			}
			byShard[j] = append(byShard[j], missed{p.lsn, t})
		}
	}
	for j, list := range byShard {
		slices.SortFunc(list, func(a, b missed) int { return cmp.Compare(a.lsn, b.lsn) })
		sh := &s.shards[j]
		w := sh.wal
		for _, m := range list {
			own := s.ownedBy(m.t.entries, j)
			sh.applyLocked(own)
			w.append(m.t.parts, m.t.entries, len(own))
			if w.err != nil {
				return fmt.Errorf("kvs: rolling transaction forward on shard %d: %w", j, w.err)
			}
			w.applied.Store(w.lsn)
		}
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("kvs: syncing rolled-forward shard %d: %w", j, err)
		}
	}
	return nil
}

func (s *Sharded) walPath(i int) string    { return s.logPaths[i][0] }
func (s *Sharded) walOldPath(i int) string { return s.logPaths[i][1] }

func (s *Sharded) snapPath(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("shard-%04d.snap", i))
}

// errNotDurable is returned by durable-only operations on volatile engines.
var errNotDurable = errors.New("kvs: engine is volatile (open it with OpenSharded)")
