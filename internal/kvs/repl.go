package kvs

// The replication surface of the engine: everything internal/repl needs to
// ship a primary's WAL to read-only followers, kept here because it is
// intimate with the log's framing and file layout.
//
// Primary side: ReplRead returns a chunk of raw, already-CRC-framed
// records from one shard's log files, resuming at a cursor's LSN — the
// bytes go onto the wire verbatim, so the stream format IS the WAL record
// format (v2, LSN-stamped). When the wanted LSN has been checkpointed away
// it returns ErrReplSnapshotNeeded and the caller sends ReplSnapshotFrame
// instead: the shard's full state as one version-3 record at its LSN, the
// same framing, so a follower bootstraps and resumes through one decoder.
//
// The read side is lockless against writers: it reads the log files
// through its own descriptors, never touches the WAL mutex, and NEVER
// reports what it sees as engine corruption — a replication reader racing
// the appender routinely observes a torn tail (length header before
// payload, payload before CRC), which is in-flight data, not damage. Those
// reads stop cleanly at the torn frame and resume on the next call;
// shardWAL.setErr is reserved for the appender's own write/sync failures.
// Rotation is detected with the WAL's generation seqlock (odd while a
// checkpoint swaps files, even when stable): a read bracketed by the same
// even gen overlapped no rotation, anything else retries, and any
// inconsistency the bracket misses is caught by the per-record LSN check
// and repaired with a rescan.
//
// Follower side: DecodeReplFrame parses one stream frame (tolerating
// partial buffers, rejecting corrupt ones without panicking) into the same
// Entry values the primary's write section logged, and ApplyReplRecord
// applies them to a volatile engine through the write section's apply half
// (applyLocked, write.go) — the follower's read fast paths are the same
// BRAVO-biased paths the primary serves with.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/bravolock/bravo/internal/frame"
)

// ReplRecord is one decoded replication frame: a WAL record (one shard
// write batch) or, when Snapshot is set, a full-state snapshot of the
// shard as of LSN — the applier replaces the shard's contents instead of
// applying incrementally. Txn marks a multi-shard transaction witness
// record: Entries then spans every participant shard, and the applier
// keeps only the entries owned by the shard whose stream carried the frame
// (each participant's stream carries its own copy). Entry values alias the
// decoded frame; ApplyReplRecord copies them under the shard lock, so callers
// that apply immediately need no copy.
type ReplRecord struct {
	LSN      uint64
	Snapshot bool
	Txn      bool
	Entries  []Entry
}

// ErrReplSnapshotNeeded reports that the LSN a replication cursor wants is
// no longer in the shard's log files — a checkpoint truncated it away.
// The caller resyncs the follower with ReplSnapshotFrame.
var ErrReplSnapshotNeeded = errors.New("kvs: requested LSN checkpointed out of the log; resync from a snapshot frame")

// ErrReplCorruptFrame reports stream bytes that can never become a valid
// frame: an insane declared length, a CRC mismatch over a fully-present
// payload, or a malformed payload. A follower reconnects on it.
var ErrReplCorruptFrame = errors.New("kvs: corrupt replication frame")

// DefaultReplChunk bounds the framed bytes one ReplRead returns when the
// caller passes no budget.
const DefaultReplChunk = 1 << 20

// CountReplFrames counts the complete frames at the head of chunk by
// walking the length headers only — no CRC, no payload decode. It is the
// cheap stats companion for chunks ReplRead already validated.
func CountReplFrames(chunk []byte) int {
	n := 0
	for len(chunk) >= walHeaderSize {
		flen := walHeaderSize + int(binary.LittleEndian.Uint32(chunk))
		if flen > len(chunk) {
			break
		}
		chunk = chunk[flen:]
		n++
	}
	return n
}

// DecodeReplFrame decodes the first frame of data. It returns (record,
// bytes consumed, nil) for a complete valid frame; (zero, 0, nil) when
// data is a valid-so-far prefix that needs more bytes; and (zero, 0,
// ErrReplCorruptFrame) when the head of data can never become a valid
// frame. It never panics, whatever the bytes (FuzzReplStream), and entry
// values alias data.
func DecodeReplFrame(data []byte) (ReplRecord, int, error) {
	payload, n, status := splitFrame(data)
	switch status {
	case frameIncomplete:
		return ReplRecord{}, 0, nil
	case frameCorrupt:
		return ReplRecord{}, 0, ErrReplCorruptFrame
	}
	rec, ok := walDecodePayload(payload)
	if !ok {
		return ReplRecord{}, 0, ErrReplCorruptFrame
	}
	return ReplRecord{
		LSN:      rec.lsn,
		Snapshot: rec.version == walVersionSnap,
		Txn:      rec.version == walVersionTxn,
		Entries:  rec.entries,
	}, n, nil
}

// ShardLSN returns the LSN of the last record applied to shard i — the
// commit LSN a writer that just returned can hand out as a
// read-your-writes token, and the position /repl/status reports. Volatile
// engines (no WAL, no LSNs) always return 0.
func (s *Sharded) ShardLSN(i int) uint64 {
	if !s.durable {
		return 0
	}
	return s.shards[i].wal.applied.Load()
}

// ReplLSNs returns every shard's applied LSN (nil for volatile engines).
func (s *Sharded) ReplLSNs() []uint64 {
	if !s.durable {
		return nil
	}
	out := make([]uint64, len(s.shards))
	for i := range s.shards {
		out[i] = s.shards[i].wal.applied.Load()
	}
	return out
}

// ReplCursor is a replication reader's position in one shard's log: Next
// is the LSN it wants next. The unexported fields cache a byte offset into
// the current log file so a tailing reader does not rescan the log on
// every call; they are invalidated by rotation (via the WAL generation
// counter) and by any LSN discontinuity, falling back to a full rescan.
// The zero value (or Next 0) starts from LSN 1.
type ReplCursor struct {
	Next uint64
	gen  uint64
	off  int64
	ok   bool
}

// ReplRead returns the next chunk of framed records from shard's log,
// resuming at cur.Next and advancing cur past what it returns. The bytes
// are verbatim log records (CRC framing included) ready for the wire. An
// empty result with a nil error means the reader is caught up — poll
// again after a beat. ErrReplSnapshotNeeded means cur.Next was truncated
// away by a checkpoint: send ReplSnapshotFrame and resume past its LSN.
// maxBytes bounds the returned chunk (0 means DefaultReplChunk); a single
// record larger than the budget is still returned whole.
//
// ReplRead is safe to call concurrently with writers and checkpoints: it
// takes no engine lock, and a torn tail it races into is "no more data
// yet", never an engine error (see the package note).
func (s *Sharded) ReplRead(shard int, cur *ReplCursor, maxBytes int) ([]byte, error) {
	if !s.durable {
		return nil, errNotDurable
	}
	if shard < 0 || shard >= len(s.shards) {
		return nil, fmt.Errorf("kvs: shard %d out of range [0,%d)", shard, len(s.shards))
	}
	if maxBytes <= 0 {
		maxBytes = DefaultReplChunk
	}
	if cur.Next == 0 {
		cur.Next = 1
	}
	w := s.shards[shard].wal

	// Fast path: same (even) generation as the last call, so the cached
	// offset into the current log file is still meaningful — read forward
	// from it. An odd gen is a rotation in flight: the files are not
	// stable, whatever the cached value says.
	if cur.ok {
		g := w.gen.Load()
		if g != cur.gen || g&1 == 1 {
			cur.ok = false
		} else {
			data, err := readFileFrom(s.walPath(shard), cur.off)
			if err != nil {
				return nil, err
			}
			if w.gen.Load() != g {
				cur.ok = false // rotation raced the read; rescan below
			} else {
				out, consumed, count, clean := collectFrames(data, cur.Next, maxBytes)
				if count > 0 || clean {
					cur.Next += uint64(count)
					cur.off += consumed
					if !clean {
						cur.ok = false
					}
					return out, nil
				}
				// First decodable frame had the wrong LSN: the cached
				// offset lies (e.g. in-place truncation). Rescan.
				cur.ok = false
			}
		}
	}

	// Slow path: scan wal.old + wal from the top, bracketing the lockless
	// reads with the generation seqlock so a concurrent checkpoint's file
	// swap sends us around again instead of into a frankenstein view.
	for attempt := 0; attempt < 8; attempt++ {
		g := w.gen.Load()
		if g&1 == 1 {
			continue // rotation in flight; go around
		}
		appliedBefore := w.applied.Load()
		oldData, err := readFileIfExists(s.walOldPath(shard))
		if err != nil {
			return nil, err
		}
		curData, err := readFileIfExists(s.walPath(shard))
		if err != nil {
			return nil, err
		}
		if w.gen.Load() != g {
			continue
		}
		out, _, nOld, _ := collectFrames(oldData, cur.Next, maxBytes)
		next := cur.Next + uint64(nOld)
		var consumedCur int64
		var nCur int
		var cleanCur bool
		if rem := maxBytes - len(out); nOld == 0 || rem > 0 {
			var more []byte
			more, consumedCur, nCur, cleanCur = collectFrames(curData, next, rem)
			out = append(out, more...)
			next += uint64(nCur)
		}
		if len(out) == 0 && appliedBefore >= cur.Next {
			// The shard committed cur.Next (applied was already past it
			// before we read the files, so the record was fully on disk),
			// yet neither file holds it: a checkpoint truncated it away.
			return nil, ErrReplSnapshotNeeded
		}
		cur.Next = next
		// The cached offset is only valid when we consumed into the
		// current file cleanly and no rotation interleaved.
		if nCur > 0 && cleanCur && w.gen.Load() == g {
			cur.gen, cur.off, cur.ok = g, consumedCur, true
		} else {
			cur.ok = false
		}
		return out, nil
	}
	// Checkpoints kept rotating under us; let the caller come back.
	return nil, nil
}

// collectFrames scans data for the contiguous run of valid frames whose
// LSNs count up from next, returning the run's raw bytes, the offset just
// past it, and the frame count. clean reports that the scan ended for a
// benign reason — end of data, a torn tail, or the byte budget — rather
// than an LSN discontinuity (a legacy v1 frame, which carries no LSN,
// counts as a discontinuity: it predates replication and is only ever
// covered by a snapshot resync). Frames with LSNs below next (already
// consumed: the wal.old replay window a checkpoint leaves behind) are
// skipped, not returned.
func collectFrames(data []byte, next uint64, maxBytes int) (out []byte, consumed int64, count int, clean bool) {
	off := 0
	for {
		payload, n, status := splitFrame(data[off:])
		if status != frameOK {
			return out, consumed, count, true
		}
		rec, ok := walDecodePayload(payload)
		if !ok || rec.version == walVersionSnap {
			return out, consumed, count, true // torn-tail posture: stop, retry later
		}
		if rec.version == walVersion1 {
			// The legacy region: v1 frames carry no LSN, so they are never
			// shippable (a cursor pointed into them resyncs via snapshot),
			// but in an upgraded log they all precede the v2 tail — skip
			// them to reach it. Mid-run they are a discontinuity.
			if count > 0 {
				return out, consumed, count, false
			}
			off += n
			continue
		}
		if rec.lsn > next {
			return out, consumed, count, false
		}
		if rec.lsn == next {
			if count > 0 && len(out)+n > maxBytes {
				return out, consumed, count, true
			}
			out = append(out, data[off:off+n]...)
			next++
			count++
			consumed = int64(off + n)
		}
		off += n
	}
}

// ReplSnapshotFrame encodes shard's full visible state as one framed
// snapshot record at the shard's current LSN: the stream's bootstrap and
// resync frame. It briefly blocks the shard's writers (the WAL mutex
// pins the LSN to the copied state) but never its readers; TTL entries
// are encoded with their remaining time and expired residue is compacted
// away, exactly like a checkpoint snapshot.
func (s *Sharded) ReplSnapshotFrame(shard int) ([]byte, uint64, error) {
	if !s.durable {
		return nil, 0, errNotDurable
	}
	if shard < 0 || shard >= len(s.shards) {
		return nil, 0, fmt.Errorf("kvs: shard %d out of range [0,%d)", shard, len(s.shards))
	}
	sh := &s.shards[shard]
	w := sh.wal
	w.mu.Lock()
	lsn := w.lsn
	tok := sh.lock.RLock()
	buf := make([]byte, walHeaderSize, walHeaderSize+64)
	buf = append(buf, walVersionSnap)
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	countOff := len(buf)
	buf, count := sh.appendLive(binary.LittleEndian.AppendUint32(buf, 0), walOpPut) // count patched below
	sh.lock.RUnlock(tok)
	w.mu.Unlock()
	binary.LittleEndian.PutUint32(buf[countOff:], uint32(count))
	frame.Seal(buf)
	sh.ops.snapshots.Add(1)
	return buf, lsn, nil
}

// ApplyReplRecord applies one decoded replication record to shard: one
// write-lock acquisition for the whole record — the follower inherits the
// primary's group-commit batching as write combining — and the same
// applyLocked every writer's entries go through, so a replicated entry is
// applied and counted exactly like a local one. Snapshot records replace the
// shard's contents first. The engine must be volatile: a follower's log of
// record is its primary's WAL, and LSN accounting belongs to the puller that
// knows the stream position.
func (s *Sharded) ApplyReplRecord(shard int, rec ReplRecord) error {
	if s.durable {
		return errors.New("kvs: replication target must be a volatile engine (the primary's WAL is the log of record)")
	}
	if shard < 0 || shard >= len(s.shards) {
		return fmt.Errorf("kvs: shard %d out of range [0,%d)", shard, len(s.shards))
	}
	for _, e := range rec.Entries {
		if e.Op != OpPut && e.Op != OpDelete {
			return fmt.Errorf("kvs: replicated entry op %d unknown", e.Op)
		}
	}
	ents := rec.Entries
	if rec.Txn {
		// A transaction witness frame carries every participant's entries;
		// this shard's stream delivers it so this shard applies exactly its
		// own (the other participants' streams deliver their copies). The
		// follower shares the primary's shard count — repl targets are built
		// that way, and the MANIFEST pins it on the durable side.
		ents = s.ownedBy(ents, shard)
	}
	sh := &s.shards[shard]
	sh.wlock()
	if rec.Snapshot {
		// Wholesale replacement is a mutation site like any other: it runs
		// inside the write section, so optimistic readers never probe a
		// table pointing at discarded cells as current.
		sh.replaceLocked()
		sh.idx.reserve(len(ents)) // slot-ordered keys, like a snapshot file's
	}
	_, n := sh.applyLocked(ents)
	sh.wunlock()
	sh.countBatch(len(ents))
	sh.adaptTick(n)
	return nil
}

// readFileIfExists reads a whole file, treating absence as emptiness.
func readFileIfExists(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	return data, err
}

// readFileFrom reads a file from offset to EOF, treating absence (and an
// offset at or past EOF) as emptiness.
func readFileFrom(path string, off int64) ([]byte, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, err
	}
	return io.ReadAll(f)
}
