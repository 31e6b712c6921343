package kvs

// Snapshot checkpoints: a per-shard point-in-time copy written beside the
// log so the log can be truncated. A checkpoint of one shard is
//
//  1. copy the shard's maps and rotate its WAL, atomically with respect to
//     writers (under the WAL mutex; the copy itself runs under the shard's
//     ordinary BRAVO read lock, so concurrent readers are never blocked);
//  2. write the copy to shard-NNNN.snap.tmp, fsync, rename over
//     shard-NNNN.snap, fsync the directory — the snapshot becomes visible
//     atomically or not at all;
//  3. remove the rotated shard-NNNN.wal.old generation.
//
// Crash anywhere in that sequence recovers: the opener replays snapshot,
// then .wal.old if present, then .wal. The rotation point guarantees the
// new snapshot covers exactly the records in .wal.old, and replaying a
// record the snapshot already covers is idempotent — a key's final record
// in .wal.old is, by construction, the state the snapshot captured.
// TTL-expired residue is compacted away: entries past their deadline at
// checkpoint time are not written.
//
// Snapshot file format v2 (integers little-endian, fixed width):
//
//	file    := magic "BRVOSNP2" | u64 lsn | u64 count | count × entry | u32 crc32c
//	entry   := u8 hasTTL | u64 key | [i64 remainingNanos] | u32 vlen | vlen bytes
//
// The lsn field records the WAL LSN the snapshot covers: every record with
// a smaller-or-equal LSN is folded in, so recovery (and a replication
// follower resuming from snapshot + LSN) continues the sequence from it.
// Legacy "BRVOSNP1" files (no lsn field) still load, as LSN 0 — the
// upgrade path for pre-LSN directories. The trailing CRC covers everything
// between magic and itself. Snapshots are written via tmp+rename, so a
// torn snapshot is impossible in normal operation; a corrupt one fails
// recovery loudly instead of silently dropping keys.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"github.com/bravolock/bravo/internal/clock"
	"github.com/bravolock/bravo/internal/frame"
)

var (
	snapMagic   = []byte("BRVOSNP2")
	snapMagicV1 = []byte("BRVOSNP1")
)

// Checkpoint writes a snapshot of every shard and truncates its log.
// Concurrent writes to a shard stall while that shard's state is copied
// and its log rotated (the rotation is disk IO: fsync, rename, reopen);
// reads are never blocked, and the snapshot file itself is written with
// no lock held. It returns an error on volatile engines (WithDurability
// was not given).
func (s *Sharded) Checkpoint() error {
	if !s.durable {
		return errNotDurable
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	for i := range s.shards {
		if err := s.checkpointShard(i); err != nil {
			return fmt.Errorf("kvs: checkpoint shard %d: %w", i, err)
		}
	}
	return nil
}

// checkpointShard runs the three-step protocol above for one shard. The
// caller holds ckptMu, so generations cannot interleave.
func (s *Sharded) checkpointShard(i int) error {
	sh := &s.shards[i]
	w := sh.wal

	// Step 1: copy + rotate at one consistent point. The WAL mutex blocks
	// writers (they take it before the shard lock); the read lock makes the
	// copy safe against in-place value updates already in flight. The LSN
	// captured here is exact: no record can commit while mu is held, so the
	// copy is the state as of lsn and the snapshot covers precisely the
	// records the rotation moves aside.
	w.mu.Lock()
	lsn := w.lsn
	tok := sh.lock.RLock()
	data, exp := sh.copyLocked()
	sh.lock.RUnlock(tok)
	err := w.rotate(s.walPath(i), s.walOldPath(i))
	w.mu.Unlock()
	if err != nil {
		return err
	}

	// Step 2: publish the snapshot atomically.
	tmp := s.snapPath(i) + ".tmp"
	if err := writeSnapshotFile(tmp, data, exp, lsn); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.snapPath(i)); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}

	// Step 3: the snapshot now covers the old generation; drop it.
	if err := os.Remove(s.walOldPath(i)); err != nil && !os.IsNotExist(err) {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	sh.ops.checkpoints.Add(1)
	return nil
}

// writeSnapshotFile renders one shard's copied state and fsyncs it.
// Entries already past their TTL deadline are compacted away; deadlines
// are persisted as remaining nanoseconds, like WAL records. lsn is the WAL
// LSN the copy covers.
func writeSnapshotFile(path string, data map[uint64][]byte, exp ttlMap, lsn uint64) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	now := clock.Nanos()
	var buf []byte
	count := uint64(0)
	body := make([]byte, 0, 64)
	for k, v := range data {
		d, hasTTL := exp[k]
		if hasTTL && now >= d {
			continue // compaction: expired residue stays dead
		}
		if hasTTL {
			body = append(body, 1)
			body = binary.LittleEndian.AppendUint64(body, k)
			body = binary.LittleEndian.AppendUint64(body, uint64(d-now))
		} else {
			body = append(body, 0)
			body = binary.LittleEndian.AppendUint64(body, k)
		}
		body = binary.LittleEndian.AppendUint32(body, uint32(len(v)))
		body = append(body, v...)
		count++
	}
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	buf = binary.LittleEndian.AppendUint64(buf, count)
	buf = append(buf, body...)
	crc := frame.Checksum(buf[len(snapMagic):])
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadSnapshot parses a snapshot file's bytes into entries (puts only,
// remaining TTLs re-anchored as deadlines) plus the WAL LSN the snapshot covers (0 for legacy v1 files,
// which predate LSNs). Unlike WAL replay there is no torn-tail tolerance:
// snapshots are published atomically, so any damage is real corruption and
// errors out. It never panics on arbitrary bytes (FuzzSnapshotLoad).
func loadSnapshot(data []byte) ([]Entry, uint64, error) {
	if len(data) < len(snapMagic)+8+4 {
		return nil, 0, errors.New("snapshot too short")
	}
	legacy := string(data[:len(snapMagicV1)]) == string(snapMagicV1)
	if !legacy && string(data[:len(snapMagic)]) != string(snapMagic) {
		return nil, 0, errors.New("bad snapshot magic")
	}
	crcOff := len(data) - 4
	want := binary.LittleEndian.Uint32(data[crcOff:])
	if frame.Checksum(data[len(snapMagic):crcOff]) != want {
		return nil, 0, errors.New("snapshot CRC mismatch")
	}
	var lsn uint64
	off := len(snapMagic)
	if !legacy {
		if crcOff-off < 8 {
			return nil, 0, errors.New("snapshot too short for lsn")
		}
		lsn = binary.LittleEndian.Uint64(data[off:])
		off += 8
	}
	if crcOff-off < 8 {
		return nil, 0, errors.New("snapshot too short for count")
	}
	count := binary.LittleEndian.Uint64(data[off:])
	body := data[off+8 : crcOff]
	// Every entry is at least 13 bytes; an insane count never preallocates.
	if count > uint64(len(body)/13) {
		return nil, 0, fmt.Errorf("snapshot claims %d entries in %d bytes", count, len(body))
	}
	entries := make([]Entry, 0, count)
	off = 0
	for i := uint64(0); i < count; i++ {
		if len(body)-off < 13 {
			return nil, 0, errors.New("snapshot entry truncated")
		}
		hasTTL := body[off]
		if hasTTL > 1 {
			return nil, 0, fmt.Errorf("snapshot entry flag %d", hasTTL)
		}
		e := Entry{Op: OpPut, Key: binary.LittleEndian.Uint64(body[off+1:])}
		off += 9
		if hasTTL == 1 {
			if len(body)-off < 12 {
				return nil, 0, errors.New("snapshot TTL entry truncated")
			}
			e.Deadline = deadlineFromRemaining(int64(binary.LittleEndian.Uint64(body[off:])))
			off += 8
		}
		vlen := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if vlen < 0 || vlen > len(body)-off {
			return nil, 0, errors.New("snapshot value truncated")
		}
		e.Value = body[off : off+vlen]
		off += vlen
		entries = append(entries, e)
	}
	if off != len(body) {
		return nil, 0, errors.New("snapshot has trailing bytes")
	}
	return entries, lsn, nil
}

// syncDir fsyncs a directory so renames and removals inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
