package kvs

// Tests for the engine's replication surface: LSN stamping and recovery,
// the lockless log reader (including the reader-vs-appender torn-tail race
// the stream depends on), snapshot frames, and record application.

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/frame"
)

// decodeAll decodes every frame in chunk, failing the test on corruption
// or leftover bytes, and asserts LSNs continue from *next.
func decodeAll(t *testing.T, chunk []byte, next *uint64) []ReplRecord {
	t.Helper()
	var out []ReplRecord
	for len(chunk) > 0 {
		rec, n, err := DecodeReplFrame(chunk)
		if err != nil {
			t.Fatalf("DecodeReplFrame: %v", err)
		}
		if n == 0 {
			t.Fatalf("ReplRead returned a torn frame (%d bytes left)", len(chunk))
		}
		if rec.LSN != *next {
			t.Fatalf("frame LSN %d, want %d", rec.LSN, *next)
		}
		*next++
		out = append(out, rec)
		chunk = chunk[n:]
	}
	return out
}

// applyAll feeds records into a volatile follower engine.
func applyAll(t *testing.T, f *Sharded, shard int, recs []ReplRecord) {
	t.Helper()
	for _, rec := range recs {
		if err := f.ApplyReplRecord(shard, rec); err != nil {
			t.Fatalf("ApplyReplRecord: %v", err)
		}
	}
}

func TestReplReadShipsTheLogVerbatim(t *testing.T) {
	s := openTestKV(t, t.TempDir(), 1, SyncNone)
	defer s.Close()
	s.Put(1, []byte("one"))
	s.PutTTL(2, []byte("soon"), time.Hour)
	s.MultiPut([]uint64{3, 4}, [][]byte{[]byte("three"), []byte("four")})
	s.Delete(1)

	f, err := NewSharded(1, mkStd)
	if err != nil {
		t.Fatal(err)
	}
	var cur ReplCursor
	chunk, err := s.ReplRead(0, &cur, 0)
	if err != nil {
		t.Fatal(err)
	}
	next := uint64(1)
	recs := decodeAll(t, chunk, &next)
	if len(recs) != 4 { // Put, PutTTL, MultiPut group, Delete
		t.Fatalf("shipped %d records, want 4", len(recs))
	}
	if got := s.ShardLSN(0); got != 4 {
		t.Fatalf("ShardLSN = %d, want 4", got)
	}
	applyAll(t, f, 0, recs)
	if !mapsEqualKV(f.Snapshot(), s.Snapshot()) {
		t.Fatalf("follower state %v != primary %v", f.Snapshot(), s.Snapshot())
	}
	// TTL shipped as remaining time: still visible on the follower.
	if _, ok := f.Get(2); !ok {
		t.Fatal("TTL key lost in transit")
	}
	// Caught up: empty chunk, nil error, cursor stays.
	chunk, err = s.ReplRead(0, &cur, 0)
	if err != nil || len(chunk) != 0 {
		t.Fatalf("caught-up ReplRead = %d bytes, %v", len(chunk), err)
	}
	// New writes appear on the next call, resuming from the cursor.
	s.Put(9, []byte("nine"))
	chunk, err = s.ReplRead(0, &cur, 0)
	if err != nil {
		t.Fatal(err)
	}
	if recs := decodeAll(t, chunk, &next); len(recs) != 1 {
		t.Fatalf("tail read shipped %d records, want 1", len(recs))
	}
}

func mapsEqualKV(a, b map[uint64][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if !bytes.Equal(b[k], v) {
			return false
		}
	}
	return true
}

// TestReplSnapshotNeededAfterCheckpoint: once a checkpoint truncates the
// log, a cursor behind it must be told to resync, and the snapshot frame
// plus the remaining stream must reconstruct the exact primary state.
func TestReplSnapshotNeededAfterCheckpoint(t *testing.T) {
	s := openTestKV(t, t.TempDir(), 1, SyncNone)
	defer s.Close()
	for k := uint64(0); k < 32; k++ {
		s.Put(k, EncodeValue(k))
	}
	s.Delete(31)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var cur ReplCursor
	if _, err := s.ReplRead(0, &cur, 0); err != ErrReplSnapshotNeeded {
		t.Fatalf("ReplRead from 1 after checkpoint: %v, want ErrReplSnapshotNeeded", err)
	}
	snapFrame, lsn, err := s.ReplSnapshotFrame(0)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 33 {
		t.Fatalf("snapshot frame at LSN %d, want 33", lsn)
	}
	rec, n, err := DecodeReplFrame(snapFrame)
	if err != nil || n != len(snapFrame) {
		t.Fatalf("snapshot frame decode: n=%d err=%v", n, err)
	}
	if !rec.Snapshot || rec.LSN != lsn {
		t.Fatalf("snapshot frame decoded as %+v", rec)
	}
	f, err := NewSharded(1, mkStd)
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, f, 0, []ReplRecord{rec})
	if !mapsEqualKV(f.Snapshot(), s.Snapshot()) {
		t.Fatal("snapshot frame did not reconstruct the primary state")
	}
	// Resume past the snapshot: only post-checkpoint records ship.
	s.Put(100, []byte("after"))
	cur = ReplCursor{Next: lsn + 1}
	chunk, err := s.ReplRead(0, &cur, 0)
	if err != nil {
		t.Fatal(err)
	}
	next := lsn + 1
	recs := decodeAll(t, chunk, &next)
	if len(recs) != 1 {
		t.Fatalf("post-snapshot stream shipped %d records, want 1", len(recs))
	}
	applyAll(t, f, 0, recs)
	if !mapsEqualKV(f.Snapshot(), s.Snapshot()) {
		t.Fatal("resumed stream diverged")
	}
}

// TestReplLSNSurvivesRecoveryAndCheckpoint: the LSN sequence continues
// across close/reopen and across checkpoint rotation — the resume token
// never resets.
func TestReplLSNSurvivesRecoveryAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openTestKV(t, dir, 2, SyncNone)
	for k := uint64(0); k < 16; k++ {
		s.Put(k, EncodeValue(k))
	}
	lsns := s.ReplLSNs()
	var total uint64
	for _, l := range lsns {
		total += l
	}
	if total != 16 {
		t.Fatalf("LSNs %v sum to %d, want 16 (one per record)", lsns, total)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Put(100, []byte("post-ckpt"))
	after := s.ReplLSNs()
	s.Close()

	r := openTestKV(t, dir, 2, SyncNone)
	defer r.Close()
	got := r.ReplLSNs()
	for i := range got {
		if got[i] != after[i] {
			t.Fatalf("shard %d recovered LSN %d, want %d", i, got[i], after[i])
		}
	}
	// The sequence continues, never restarts.
	r.Put(100, []byte("again"))
	sh := r.ShardOf(100)
	if r.ShardLSN(sh) != after[sh]+1 {
		t.Fatalf("post-recovery LSN %d, want %d", r.ShardLSN(sh), after[sh]+1)
	}
}

// TestReplReaderAppenderRace pins the torn-tail posture: a replication
// reader racing the appender (and a checkpoint) must never report engine
// corruption, never record a WAL error, and must ship every record exactly
// once in LSN order. Run under -race in CI.
func TestReplReaderAppenderRace(t *testing.T) {
	const nPuts = 1500
	s := openTestKV(t, t.TempDir(), 1, SyncNone)
	defer s.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := uint64(0); k < nPuts; k++ {
			s.Put(k%64, EncodeValue(k))
			if k == nPuts/2 {
				if err := s.Checkpoint(); err != nil {
					t.Errorf("mid-stream checkpoint: %v", err)
				}
			}
		}
	}()

	var cur ReplCursor
	shipped := 0
	deadline := time.Now().Add(30 * time.Second)
	for shipped < nPuts && time.Now().Before(deadline) {
		chunk, err := s.ReplRead(0, &cur, 64<<10)
		if err == ErrReplSnapshotNeeded {
			// The mid-stream checkpoint lapped us; a real follower
			// resyncs. Here we only count records from the new position.
			_, lsn, serr := s.ReplSnapshotFrame(0)
			if serr != nil {
				t.Fatal(serr)
			}
			shipped = int(lsn)
			cur = ReplCursor{Next: lsn + 1}
			continue
		}
		if err != nil {
			t.Fatalf("ReplRead under write load: %v", err)
		}
		for len(chunk) > 0 {
			rec, n, derr := DecodeReplFrame(chunk)
			if derr != nil {
				t.Fatalf("reader saw corruption in a live log: %v", derr)
			}
			if n == 0 {
				t.Fatal("ReplRead returned a torn frame")
			}
			if rec.LSN != uint64(shipped)+1 {
				t.Fatalf("shipped LSN %d after %d records", rec.LSN, shipped)
			}
			shipped++
			chunk = chunk[n:]
		}
	}
	wg.Wait()
	if shipped != nPuts {
		t.Fatalf("shipped %d records, want %d", shipped, nPuts)
	}
	// The decisive posture check: racing a reader against the appender
	// must not have been booked as a WAL failure.
	if err := s.WALError(); err != nil {
		t.Fatalf("replication reads surfaced as WAL corruption: %v", err)
	}
	if s.Stats().Total().WALErrors != 0 {
		t.Fatal("replication reads bumped the WAL error counter")
	}
}

// TestReplLegacyV1LogUpgrades: a pre-LSN (v1) log replays with synthesized
// LSNs, new records continue the sequence in v2, and a replication cursor
// pointed into the v1 region is sent to a snapshot resync (v1 frames are
// not shippable — they carry no LSN).
func TestReplLegacyV1LogUpgrades(t *testing.T) {
	dir := t.TempDir()
	// MANIFEST for a 1-shard layout, then a hand-built v1 log.
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"version":1,"shards":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	v1rec := func(key uint64, val string) []byte {
		p := []byte{walVersion1}
		p = binary.LittleEndian.AppendUint32(p, 1)
		p = append(p, walOpPut)
		p = binary.LittleEndian.AppendUint64(p, key)
		p = binary.LittleEndian.AppendUint32(p, uint32(len(val)))
		p = append(p, val...)
		rec := make([]byte, walHeaderSize, walHeaderSize+len(p))
		binary.LittleEndian.PutUint32(rec, uint32(len(p)))
		binary.LittleEndian.PutUint32(rec[4:], frame.Checksum(p))
		return append(rec, p...)
	}
	wal := append(v1rec(1, "one"), v1rec(2, "two")...)
	if err := os.WriteFile(filepath.Join(dir, "shard-0000.wal"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTestKV(t, dir, 1, SyncNone)
	defer s.Close()
	for k, v := range map[uint64]string{1: "one", 2: "two"} {
		if got, ok := s.Get(k); !ok || string(got) != v {
			t.Fatalf("v1 record %d = %q, %v after upgrade", k, got, ok)
		}
	}
	if got := s.ShardLSN(0); got != 2 {
		t.Fatalf("synthesized LSN = %d, want 2", got)
	}
	s.Put(3, []byte("three")) // v2 record at LSN 3
	if got := s.ShardLSN(0); got != 3 {
		t.Fatalf("post-upgrade LSN = %d, want 3", got)
	}
	var cur ReplCursor
	if _, err := s.ReplRead(0, &cur, 0); err != ErrReplSnapshotNeeded {
		t.Fatalf("cursor into the v1 region: %v, want ErrReplSnapshotNeeded", err)
	}
	// From the first v2 record, the stream works.
	cur = ReplCursor{Next: 3}
	chunk, err := s.ReplRead(0, &cur, 0)
	if err != nil {
		t.Fatal(err)
	}
	next := uint64(3)
	if recs := decodeAll(t, chunk, &next); len(recs) != 1 {
		t.Fatalf("v2 tail shipped %d records, want 1", len(recs))
	}
}

// TestReplLegacySnapshotLoads: a v1 (BRVOSNP1) snapshot file loads as LSN
// 0 and the directory keeps working.
func TestReplLegacySnapshotLoads(t *testing.T) {
	dir := t.TempDir()
	s := openTestKV(t, dir, 1, SyncNone)
	s.Put(1, []byte("keep"))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Rewrite the snapshot in the v1 layout (no lsn field).
	data, err := os.ReadFile(s.snapPath(0))
	if err != nil {
		t.Fatal(err)
	}
	entries, lsn, err := loadSnapshot(data)
	if err != nil || lsn != 1 || len(entries) != 1 {
		t.Fatalf("v2 snapshot: entries=%d lsn=%d err=%v", len(entries), lsn, err)
	}
	var v1 []byte
	v1 = append(v1, snapMagicV1...)
	body := data[len(snapMagic)+8 : len(data)-4] // count + entries
	v1 = append(v1, body...)
	v1 = binary.LittleEndian.AppendUint32(v1, frame.Checksum(v1[len(snapMagicV1):]))
	entries, lsn, err = loadSnapshot(v1)
	if err != nil || lsn != 0 || len(entries) != 1 {
		t.Fatalf("v1 snapshot: entries=%d lsn=%d err=%v", len(entries), lsn, err)
	}
	if err := os.WriteFile(s.snapPath(0), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	r := openTestKV(t, dir, 1, SyncNone)
	defer r.Close()
	if v, ok := r.Get(1); !ok || string(v) != "keep" {
		t.Fatalf("v1 snapshot recovery: Get(1) = %q, %v", v, ok)
	}
}

func TestApplyReplRecordPostures(t *testing.T) {
	f, err := NewSharded(2, mkStd)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot records replace, not merge.
	f.Put(999, []byte("stale")) // key in shard f.ShardOf(999)
	sh := f.ShardOf(999)
	err = f.ApplyReplRecord(sh, ReplRecord{LSN: 5, Snapshot: true, Entries: []Entry{
		{Op: OpPut, Key: 999, Value: []byte("fresh")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := f.Get(999); string(v) != "fresh" {
		t.Fatalf("snapshot apply left %q", v)
	}
	// An empty snapshot record wipes the shard.
	if err := f.ApplyReplRecord(sh, ReplRecord{LSN: 6, Snapshot: true}); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Get(999); ok {
		t.Fatal("empty snapshot record did not clear the shard")
	}
	// Unknown ops are rejected before anything applies.
	err = f.ApplyReplRecord(0, ReplRecord{Entries: []Entry{{Op: 42, Key: 1}}})
	if err == nil {
		t.Fatal("unknown op accepted")
	}
	if err := f.ApplyReplRecord(7, ReplRecord{}); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	// Durable engines refuse: their WAL is the log of record.
	d := openTestKV(t, t.TempDir(), 1, SyncNone)
	defer d.Close()
	if err := d.ApplyReplRecord(0, ReplRecord{}); err == nil {
		t.Fatal("durable engine accepted a replicated record")
	}
}

func TestReplVolatileEngineRefuses(t *testing.T) {
	s, err := NewSharded(1, mkStd)
	if err != nil {
		t.Fatal(err)
	}
	var cur ReplCursor
	if _, err := s.ReplRead(0, &cur, 0); err == nil {
		t.Fatal("ReplRead on a volatile engine succeeded")
	}
	if _, _, err := s.ReplSnapshotFrame(0); err == nil {
		t.Fatal("ReplSnapshotFrame on a volatile engine succeeded")
	}
	if s.ShardLSN(0) != 0 || s.ReplLSNs() != nil {
		t.Fatal("volatile engine claims LSNs")
	}
}

// TestReplReadCaughtUpAllocsNothing: a stream that has shipped everything
// polls ReplRead every few milliseconds per shard, so a call with nothing
// new to read must not allocate.
func TestReplReadCaughtUpAllocsNothing(t *testing.T) {
	s := openTestKV(t, t.TempDir(), 2, SyncNone)
	defer s.Close()
	s.Put(1, []byte("one"))
	var cur ReplCursor
	shard := s.ShardOf(1)
	if frames, err := s.ReplRead(shard, &cur, 0); err != nil || len(frames) == 0 {
		t.Fatalf("first ReplRead = %d bytes, %v", len(frames), err)
	}
	poll := func() {
		if frames, err := s.ReplRead(shard, &cur, 0); err != nil || len(frames) != 0 {
			t.Fatalf("caught-up ReplRead = %d bytes, %v", len(frames), err)
		}
	}
	if n := testing.AllocsPerRun(100, poll); n != 0 {
		t.Fatalf("caught-up ReplRead allocates %.1f times per call, want 0", n)
	}
}
