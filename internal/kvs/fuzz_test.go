package kvs

// Native fuzz harnesses for the durability decoders: whatever bytes a
// damaged disk hands them, they must reject cleanly — never panic, never
// allocate absurdly, never apply half a record. CI runs the seed corpus on
// every test run and a short -fuzz exploration per target.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"testing"

	"github.com/bravolock/bravo/internal/clock"
	"github.com/bravolock/bravo/internal/frame"
)

// buildRecord frames a payload the way commit does, so seeds include
// structurally-valid records.
func buildRecord(payload []byte) []byte {
	rec := make([]byte, walHeaderSize, walHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(rec, uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], frame.Checksum(payload))
	return append(rec, payload...)
}

// validPayload encodes a three-entry batch via the real writer's encoder.
func validPayload() []byte {
	return encodeRecord(nil, 1, nil, []Entry{
		{Op: OpPut, Key: 7, Value: []byte("value")},
		{Op: OpPut, Key: 8, Deadline: 12345, Value: []byte("ttl")},
		{Op: OpDelete, Key: 9},
	})[walHeaderSize:]
}

// legacyPayload encodes a v1 (pre-LSN) record payload by hand: the decoder
// must still accept the old layout.
func legacyPayload() []byte {
	p := []byte{walVersion1}
	p = binary.LittleEndian.AppendUint32(p, 1)
	p = append(p, walOpPut)
	p = binary.LittleEndian.AppendUint64(p, 42)
	p = binary.LittleEndian.AppendUint32(p, 2)
	return append(p, 'v', '1')
}

// txnPayload encodes a two-participant transaction witness record via the
// real writer's encoder.
func txnPayload() []byte {
	return encodeRecord(nil, 5, []walPart{{shard: 0, lsn: 5}, {shard: 3, lsn: 2}}, []Entry{
		{Op: OpPut, Key: 7, Value: []byte("a")},
		{Op: OpDelete, Key: 9},
	})[walHeaderSize:]
}

func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(buildRecord(validPayload()))
	f.Add(buildRecord(txnPayload()))
	f.Add(buildRecord(txnPayload())[:walHeaderSize+20])                     // torn witness record
	f.Add(buildRecord(validPayload())[:5])                                  // torn header
	f.Add(append(buildRecord(validPayload()), 0xFF))                        // trailing garbage
	f.Add(buildRecord(append([]byte{walVersion}, make([]byte, 12)...)))     // empty batch at LSN 0
	f.Add(buildRecord([]byte{walVersion1, 1, 0, 0, 0}))                     // truncated legacy batch
	f.Add(buildRecord(legacyPayload()))                                     // valid legacy record
	f.Add(buildRecord(append([]byte{99}, make([]byte, 12)...)))             // unknown version
	f.Add(buildRecord(append([]byte{walVersionSnap}, make([]byte, 12)...))) // snapshot record: wire-only
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})                       // insane length
	f.Add(bytes.Repeat([]byte{0}, 64))                                      // zero-length records... of garbage CRC
	f.Fuzz(func(t *testing.T, data []byte) {
		applied := 0
		valid, last := walReplay(data, 0, func(rec walRecord) {
			if rec.version == walVersionTxn {
				// Witness records must surface a canonical participant
				// list: at least two shards, strictly ascending, nonzero
				// LSNs.
				for i, p := range rec.parts {
					if p.lsn == 0 || (i > 0 && p.shard <= rec.parts[i-1].shard) {
						t.Fatalf("decoder surfaced non-canonical participant list %v", rec.parts)
					}
				}
				if len(rec.parts) < 2 {
					t.Fatalf("decoder surfaced participant list %v for lsn %d", rec.parts, rec.lsn)
				}
			} else if rec.parts != nil {
				t.Fatalf("non-transaction record (v%d) carries participants", rec.version)
			}
			for _, e := range rec.entries {
				// Decoded entries must be internally sane: ops in range,
				// values inside the input buffer.
				if e.Op != OpPut && e.Op != OpDelete {
					t.Fatalf("decoder surfaced op %d", e.Op)
				}
				if len(e.Value) > len(data) {
					t.Fatalf("value of %d bytes from %d input bytes", len(e.Value), len(data))
				}
			}
			applied++
		})
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid offset %d outside [0, %d]", valid, len(data))
		}
		// Replay must be deterministic and idempotent on the valid prefix.
		applied2 := 0
		valid2, last2 := walReplay(data[:valid], 0, func(walRecord) { applied2++ })
		if valid2 != valid || applied2 != applied || last2 != last {
			t.Fatalf("replay of the valid prefix gave offset %d records %d lsn %d, want %d/%d/%d",
				valid2, applied2, last2, valid, applied, last)
		}
	})
}

// FuzzTxnWAL feeds arbitrary bytes to two shards' on-disk logs of a
// four-shard durable engine and opens it. Whatever the logs claim —
// truncated witness records, participant lists pointing at LSNs that never
// happened, cross-references between the two mutilated files — OpenSharded
// must never panic, and when it does accept the directory, recovery
// (including transaction roll-forward, which appends repair records) must
// be deterministic: closing and reopening yields the identical snapshot.
func FuzzTxnWAL(f *testing.F) {
	const shards = 4
	// Harvest seed logs from a real engine that committed cross-shard
	// transactions, so the fuzzer starts from live witness records.
	seedDir := f.TempDir()
	s, err := OpenSharded(seedDir, shards, mkStd, SyncNone)
	if err != nil {
		f.Fatal(err)
	}
	var ka, kb uint64
	ka = 1
	for kb = 2; s.ShardOf(kb) == s.ShardOf(ka); kb++ {
	}
	s.Put(ka, []byte("base-a"))
	s.PutTTL(kb, []byte("base-b"), 1<<40)
	if err := s.Txn([]uint64{ka, kb}, func(tx *Tx) error {
		tx.Put(ka, []byte("txn-a"))
		tx.Delete(kb)
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	s.Close()
	walA, err := os.ReadFile(s.walPath(s.ShardOf(ka)))
	if err != nil {
		f.Fatal(err)
	}
	walB, err := os.ReadFile(s.walPath(s.ShardOf(kb)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(walA, walB)
	f.Add(walA, walB[:len(walB)-1])   // torn witness on one participant
	f.Add(walA[:len(walA)/2], walB)   // torn mid-log
	f.Add([]byte{}, walB)             // one participant lost wholesale
	f.Add(walB, walA)                 // witnesses on the wrong shards
	f.Add(walA, walA)                 // same witness claimed twice
	f.Add([]byte{0xFF}, []byte{0x00}) // garbage
	f.Fuzz(func(t *testing.T, a, b []byte) {
		dir := t.TempDir()
		if err := writeManifest(dir, shards); err != nil {
			t.Fatal(err)
		}
		for i, data := range [][]byte{a, b} {
			path := fmt.Sprintf("%s/shard-%04d.wal", dir, i)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := OpenSharded(dir, shards, mkStd, SyncNone)
		if err != nil {
			return // rejection is fine; panics are not
		}
		snap := s.Snapshot()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenSharded(dir, shards, mkStd, SyncNone)
		if err != nil {
			t.Fatalf("accepted once, rejected on reopen: %v", err)
		}
		defer r.Close()
		snap2 := r.Snapshot()
		if len(snap2) != len(snap) {
			t.Fatalf("reopen changed visible keys: %d then %d", len(snap), len(snap2))
		}
		for k, v := range snap {
			if v2, ok := snap2[k]; !ok || !bytes.Equal(v, v2) {
				t.Fatalf("reopen changed key %d: %x then %x (present=%v)", k, v, v2, ok)
			}
		}
	})
}

func FuzzSnapshotLoad(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("BRVOSNP1"))
	// A real snapshot file, via the real writer.
	dir := f.TempDir()
	s, err := OpenSharded(dir, 1, mkStd, SyncNone)
	if err != nil {
		f.Fatal(err)
	}
	s.Put(1, []byte("one"))
	s.PutTTL(2, []byte("two"), 1<<40)
	if err := s.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	snap, err := os.ReadFile(s.snapPath(0))
	if err != nil {
		f.Fatal(err)
	}
	s.Close()
	f.Add(snap)
	f.Add(snap[:len(snap)-2]) // torn trailer
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, lsn, err := loadSnapshot(data)
		if err != nil {
			return
		}
		// Any accepted input, applied to a store, re-encodes to an image that
		// loads to the same entries: the encoder and the loader agree on
		// every state the loader can produce. Later duplicates win, as in
		// recovery; entries already expired are compacted away, and ones
		// about to expire may go either way.
		var st seqStore
		type kv struct {
			v        []byte
			deadline int64
		}
		want := map[uint64]kv{}
		for _, e := range entries {
			if e.Op != OpPut {
				t.Fatalf("snapshot surfaced op %d", e.Op)
			}
			if len(e.Value) > len(data) {
				t.Fatalf("value of %d bytes from %d input bytes", len(e.Value), len(data))
			}
			st.putLocked(e.Key, e.Value, e.Deadline)
			want[e.Key] = kv{e.Value, e.Deadline}
		}
		before := clock.Nanos()
		again, lsn2, err := loadSnapshot(st.snapshotImage(nil, lsn))
		if err != nil || lsn2 != lsn {
			t.Fatalf("re-encoded image: lsn %d (want %d), err %v", lsn2, lsn, err)
		}
		for _, e := range again {
			w, ok := want[e.Key]
			if !ok || !bytes.Equal(e.Value, w.v) || (e.Deadline == 0) != (w.deadline == 0) {
				t.Fatalf("re-encoded entry %+v, want %+v (present %v)", e, w, ok)
			}
			if w.deadline != 0 && w.deadline <= before {
				t.Fatalf("re-encoded image kept key %d, expired %d ns before it was taken", e.Key, before-w.deadline)
			}
			delete(want, e.Key)
		}
		for k, w := range want {
			if w.deadline == 0 || w.deadline > clock.Nanos() {
				t.Fatalf("re-encoded image lost live key %d (deadline %d)", k, w.deadline)
			}
		}
	})
}
