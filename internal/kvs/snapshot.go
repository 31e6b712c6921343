package kvs

// Snapshot checkpoints: a per-shard point-in-time image written beside the
// log so the log can be truncated. A checkpoint (checkpointShards) is
//
//  1. per shard: flush the log with no lock held; under the WAL mutex, stream
//     the cells into the file image (under the shard's ordinary BRAVO read
//     lock, so readers are never blocked) and rotate the log to
//     shard-NNNN.wal.old; unlocked again, write shard-NNNN.snap.tmp, fsync,
//     rename over shard-NNNN.snap — while the next shard is being captured;
//  2. one directory fsync: every snapshot is visible atomically or not at all;
//  3. remove every published shard's .wal.old; one more directory fsync.
//
// Each shard has its snapshot durable before its old log is unlinked, so a
// crash anywhere leaves every shard, independently, in a state the opener
// replays: snapshot, then .wal.old if present, then .wal. The rotation point
// guarantees the new snapshot covers exactly the records in .wal.old, and
// replaying a record the snapshot already covers is idempotent — a key's
// final record in .wal.old is, by construction, the state the snapshot
// captured. The unlocked flush is safe to repeat or lose: rotate fsyncs the
// old log again under the mutex (which is what orders old-before-new for
// SyncNone prefix consistency) and finds a few records dirty instead of a
// generation, so writers stall for the copy, not for the disk. TTL-expired
// residue is compacted away: entries past their deadline are not written.
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
	"slices"

	"github.com/bravolock/bravo/internal/clock"
	"github.com/bravolock/bravo/internal/frame"
)

var (
	snapMagic   = []byte("BRVOSNP2")
	snapMagicV1 = []byte("BRVOSNP1")
)

// Checkpoint writes a snapshot of every shard and truncates its log.
// Concurrent writes to a shard stall while that shard's cells are copied
// and its already-flushed log is rotated (fsync of the few records appended
// since the flush, rename, reopen); reads are never blocked, and the flush,
// the snapshot file and the directory syncs run with no lock held. An error
// names the first shard that failed. It returns an error on volatile engines
// (not opened with OpenSharded).
func (s *Sharded) Checkpoint() error {
	if !s.durable {
		return errNotDurable
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	all := make([]int, len(s.shards))
	for i := range all {
		all[i] = i
	}
	return s.checkpointShards(all)
}

// checkpointShards runs the protocol above over the shards in idx; the caller
// holds ckptMu (or, in openDurable, is alone). Step 1 is a fixed two-stage
// pipeline: a goroutine writes one shard's image while the caller captures
// the next into the other of two buffers, which live for the call only. The
// first failure stops it: the stage in flight is waited for, what was
// published is still pruned, and a shard rotated but not published keeps its
// .wal.old for the next rotation to merge into.
func (s *Sharded) checkpointShards(idx []int) error {
	var (
		bufs  [2][]byte
		stage chan error // the file stage in flight, working on idx[done]
		done  int        // idx[:done] are published
		first error
	)
	fail := func(i int, err error) {
		if err != nil && first == nil {
			first = fmt.Errorf("kvs: checkpoint shard %d: %w", i, err)
		}
	}
	join := func() {
		if stage == nil {
			return
		}
		if err := <-stage; err != nil {
			fail(idx[done], err)
		} else {
			s.shards[idx[done]].ops.checkpoints.Add(1)
			done++
		}
		stage = nil
	}
	for n, i := range idx {
		img, err := s.captureShard(i, bufs[n%2])
		bufs[n%2] = img
		join() // the previous shard's file I/O ran during the capture above
		if fail(i, err); first != nil {
			break
		}
		ch := make(chan error, 1)
		stage = ch
		go func() { ch <- publishFile(s.snapPath(i), img) }()
	}
	if join(); done == 0 {
		return first
	}
	// Every published snapshot is durable before any old log is unlinked.
	err := syncDir(s.dir)
	for _, i := range idx[:done] {
		if err == nil {
			err = os.Remove(s.walOldPath(i))
		}
	}
	if err == nil {
		err = syncDir(s.dir)
	}
	if err != nil && first == nil {
		first = fmt.Errorf("kvs: checkpoint: pruning old logs: %w", err)
	}
	return first
}

// captureShard renders shard i's image into buf's storage and rotates its
// log at one consistent point: no record can commit while mu is held (writers
// take it before the shard lock) and the read lock keeps in-place updates
// out, so the image is the state as of w.lsn and covers precisely the
// records the rotation moves aside.
func (s *Sharded) captureShard(i int, buf []byte) ([]byte, error) {
	sh := &s.shards[i]
	w := sh.wal
	// Flush with no lock held, so rotate's fsync under mu has little left to
	// write. Only rotate (excluded by ckptMu) and Close touch w.f; after a
	// Close the Sync fails harmlessly and rotate reports the closed log.
	w.mu.Lock()
	f := w.f
	w.mu.Unlock()
	if s.ckptFlushHook != nil {
		s.ckptFlushHook(i)
	}
	err := f.Sync()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil && !w.closed {
		w.setErr(err)
		return buf, err
	}
	tok := sh.lock.RLock()
	buf = sh.snapshotImage(buf, w.lsn)
	sh.lock.RUnlock(tok)
	return buf, w.rotate(s.walPath(i), s.walOldPath(i))
}

// snapshotImage renders the store's snapshot file, stamped lsn, into buf's
// storage. Caller holds the owner's lock, read or write.
func (st *seqStore) snapshotImage(buf []byte, lsn uint64) []byte {
	// Every entry is at least 13 bytes; the rest of a first image's growth is
	// append's, and a caller's later images reuse the storage.
	buf = slices.Grow(buf[:0], len(snapMagic)+8+8+13*st.idx.live+4)
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	buf, count := st.appendLive(binary.LittleEndian.AppendUint64(buf, 0), 0)
	binary.LittleEndian.PutUint64(buf[len(snapMagic)+8:], uint64(count))
	crc := frame.Checksum(buf[len(snapMagic):])
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// appendLive appends the store's entries to buf and returns how many, each as
//
//	u8 tag+hasTTL | u64 key | [i64 remainingNanos] | u32 vlen | vlen bytes
//
// — the layout a snapshot file's entries (tag 0) and a snapshot record's puts
// (tag walOpPut, ReplSnapshotFrame) share: one pass over the table, every
// value copied once, straight from its cell. Entries past their TTL deadline
// are compacted away. Caller holds the owner's lock, read or write.
func (st *seqStore) appendLive(buf []byte, tag byte) ([]byte, int) {
	now := clock.Nanos()
	count := 0
	st.idx.each(func(k uint64, c *seqCell) bool {
		if c.expired(&now) {
			return true // compaction: expired residue stays dead
		}
		if d := c.deadline(); d != 0 {
			buf = append(buf, tag+1)
			buf = binary.LittleEndian.AppendUint64(buf, k)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(d-now))
		} else {
			buf = append(buf, tag)
			buf = binary.LittleEndian.AppendUint64(buf, k)
		}
		vlenAt := len(buf)
		buf = c.appendTo(append(buf, 0, 0, 0, 0))
		binary.LittleEndian.PutUint32(buf[vlenAt:], uint32(len(buf)-vlenAt-4))
		count++
		return true
	})
	return buf, count
}

// publishFile makes path hold exactly data, atomically: path.tmp is written,
// fsynced and renamed over path (durable once the caller fsyncs the
// directory), and removed if any of that fails.
func publishFile(path string, data []byte) error {
	tmp := path + ".tmp"
	err := writeFileSync(tmp, os.O_CREATE|os.O_TRUNC, data)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) // best effort: the opener discards a leftover anyway
	}
	return err
}

// writeFileSync opens path write-only (plus flag), writes data and fsyncs it.
func writeFileSync(path string, flag int, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|flag, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// loadSnapshot parses a snapshot file's bytes into entries (puts only,
// remaining TTLs re-anchored as deadlines) plus the WAL LSN the snapshot
// covers (0 for legacy v1 files, which predate LSNs). Unlike WAL replay there
// is no torn-tail tolerance: snapshots are published atomically, so any
// damage is real corruption and errors out. It never panics on arbitrary
// bytes (FuzzSnapshotLoad).
func loadSnapshot(data []byte) ([]Entry, uint64, error) {
	if len(data) < len(snapMagic)+8+4 {
		return nil, 0, errors.New("snapshot too short")
	}
	legacy := string(data[:len(snapMagicV1)]) == string(snapMagicV1)
	if !legacy && string(data[:len(snapMagic)]) != string(snapMagic) {
		return nil, 0, errors.New("bad snapshot magic")
	}
	crcOff := len(data) - 4
	if frame.Checksum(data[len(snapMagic):crcOff]) != binary.LittleEndian.Uint32(data[crcOff:]) {
		return nil, 0, errors.New("snapshot CRC mismatch")
	}
	c := frame.NewCursor(data[len(snapMagic):crcOff])
	var lsn uint64
	if !legacy {
		lsn = c.U64()
	}
	count := c.U64()
	// Every entry is at least 13 bytes; an insane count never preallocates.
	if count > uint64(c.Len()/(1+8+4)) {
		return nil, 0, fmt.Errorf("snapshot claims %d entries in %d bytes", count, c.Len())
	}
	entries := decodeEntries(&c, int(count), 0)
	if !c.Done() {
		return nil, 0, errors.New("snapshot entries malformed")
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
