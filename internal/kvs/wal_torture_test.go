package kvs

// Crash-recovery torture: write through the WAL, "crash" (no Close),
// mutilate the log — truncation at every record boundary, at random
// mid-record offsets, and single-bit corruption — and demand that
// OpenSharded recovers exactly the state of some prefix of the applied
// operations. The oracle is independent of the decoder under test: the
// log file's byte size is recorded after every operation, so for a
// truncation at L bytes the expected state is the model after the last
// operation whose records fit entirely within L. Torn tails are dropped,
// never corrupt.

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/bravolock/bravo/internal/xrand"
)

// tortureOp is one logged operation and its model effect.
type tortureOp struct {
	apply func(s *Sharded)          // issue against the live engine
	model func(m map[uint64][]byte) // fold into the visible-state model
}

// tortureSchedule builds a deterministic randomized schedule. Async writes
// ride along: PutAsync appends nothing until a Flush applies the batch, so
// an op's model effect can be empty and a Flush's can be several keys —
// the offset oracle handles both for free.
func tortureSchedule(rng *xrand.XorShift64, n int, keyspace uint64) []tortureOp {
	ops := make([]tortureOp, 0, n)
	var pendKeys []uint64
	var pendVals [][]byte
	for i := 0; i < n; i++ {
		k := rng.Next() % keyspace
		switch rng.Intn(12) {
		case 0, 1, 2, 3:
			v := EncodeValue(rng.Next())
			ops = append(ops, tortureOp{
				apply: func(s *Sharded) { s.Put(k, v) },
				model: func(m map[uint64][]byte) { m[k] = v },
			})
		case 4:
			v := EncodeValue(rng.Next())
			ops = append(ops, tortureOp{
				apply: func(s *Sharded) { s.put(k, v, math.MaxInt64) },
				model: func(m map[uint64][]byte) { m[k] = v },
			})
		case 5:
			v := EncodeValue(rng.Next())
			ops = append(ops, tortureOp{
				apply: func(s *Sharded) { s.put(k, v, -1) },
				model: func(m map[uint64][]byte) { delete(m, k) },
			})
		case 6, 7:
			ops = append(ops, tortureOp{
				apply: func(s *Sharded) { s.Delete(k) },
				model: func(m map[uint64][]byte) { delete(m, k) },
			})
		case 8: // MultiPut: one record for the whole (single-shard) group
			bn := 2 + int(rng.Intn(5))
			keys := make([]uint64, bn)
			vals := make([][]byte, bn)
			for j := range keys {
				keys[j] = rng.Next() % keyspace
				vals[j] = EncodeValue(rng.Next())
			}
			ops = append(ops, tortureOp{
				apply: func(s *Sharded) { s.MultiPut(keys, vals) },
				model: func(m map[uint64][]byte) {
					for j, bk := range keys {
						m[bk] = vals[j]
					}
				},
			})
		case 9: // PutAsync: enqueued, logged only when a batch applies
			v := EncodeValue(rng.Next())
			pendKeys = append(pendKeys, k)
			pendVals = append(pendVals, v)
			ops = append(ops, tortureOp{
				apply: func(s *Sharded) { s.PutAsync(k, v) },
				model: func(m map[uint64][]byte) {},
			})
		case 10: // Flush: the queued batch becomes one record
			fk, fv := pendKeys, pendVals
			pendKeys, pendVals = nil, nil
			ops = append(ops, tortureOp{
				apply: func(s *Sharded) { s.Flush() },
				model: func(m map[uint64][]byte) {
					for j, bk := range fk {
						m[bk] = fv[j]
					}
				},
			})
		default: // Reap: appends nothing, changes nothing visible
			ops = append(ops, tortureOp{
				apply: func(s *Sharded) { s.Reap(16) },
				model: func(m map[uint64][]byte) {},
			})
		}
	}
	return ops
}

// modelAfter folds the first n ops into a fresh visible-state map.
func modelAfter(ops []tortureOp, n int) map[uint64][]byte {
	m := map[uint64][]byte{}
	for i := 0; i < n; i++ {
		ops[i].model(m)
	}
	return m
}

// cloneDirWithWAL copies MANIFEST into a fresh directory and installs wal
// as the single shard's log — the "disk image" a crash left behind.
func cloneDirWithWAL(t *testing.T, srcDir string, wal []byte) string {
	t.Helper()
	dst := t.TempDir()
	man, err := os.ReadFile(filepath.Join(srcDir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, manifestName), man, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, "shard-0000.wal"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// expectState opens the image and compares against want.
func expectState(t *testing.T, dir string, want map[uint64][]byte, label string) {
	t.Helper()
	r, err := OpenSharded(dir, 1, mkStd, SyncNone)
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	defer r.Close()
	got := r.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("%s: recovered %d keys, want %d", label, len(got), len(want))
	}
	for k, wv := range want {
		if gv, ok := got[k]; !ok || !bytes.Equal(gv, wv) {
			t.Fatalf("%s: key %d = %x (present %v), want %x", label, k, gv, ok, wv)
		}
	}
}

func TestTortureTruncatedTailIsPrefixConsistent(t *testing.T) {
	nOps, nCuts := 160, 60
	if testing.Short() {
		nOps, nCuts = 60, 15
	}
	dir := t.TempDir()
	s := openTestKV(t, dir, 1, SyncNone)
	s.SetAsyncBatch(1 << 30) // batches apply on Flush only: schedule-determined records
	rng := xrand.NewXorShift64(0x7027012E)
	ops := tortureSchedule(rng, nOps, 64)
	offsets := make([]int64, len(ops))
	walPath := s.walPath(0)
	for i, op := range ops {
		op.apply(s)
		st, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		offsets[i] = st.Size()
	}
	// The crash: no Close. Writes went straight to the file descriptor, so
	// the bytes are all there; the mutilations below simulate what a real
	// crash (or a half-written sector) can leave.
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(wal)) != offsets[len(offsets)-1] {
		t.Fatalf("wal is %d bytes, offsets say %d", len(wal), offsets[len(offsets)-1])
	}
	// prefixFor: how many ops are fully on disk in the first L bytes.
	prefixFor := func(L int64) int {
		n := 0
		for n < len(offsets) && offsets[n] <= L {
			n++
		}
		return n
	}
	cut := func(L int64, label string) {
		img := cloneDirWithWAL(t, dir, wal[:L])
		expectState(t, img, modelAfter(ops, prefixFor(L)), label)
	}
	// Every record boundary, including the empty log and the full log.
	cut(0, "empty")
	for i, off := range offsets {
		if i == len(offsets)-1 || off != offsets[i+1] {
			cut(off, "boundary")
		}
	}
	// Random offsets, most of them mid-record.
	for c := 0; c < nCuts; c++ {
		cut(int64(rng.Next()%uint64(len(wal)+1)), "random")
	}
	// Single-bit corruption: everything after the flipped byte's record is
	// dropped; nothing before it is touched; no panic, no garbage value.
	for c := 0; c < nCuts/3; c++ {
		p := int(rng.Next() % uint64(len(wal)))
		mut := append([]byte(nil), wal...)
		mut[p] ^= 1 << (rng.Next() % 8)
		img := cloneDirWithWAL(t, dir, mut)
		expectState(t, img, modelAfter(ops, prefixFor(int64(p))), "bitflip")
	}
}

// TestTortureRecoveredStoreIsWritable: after recovering from a mid-record
// cut, the reopened engine must truncate the torn bytes before appending —
// otherwise its own new records would sit beyond garbage and be lost to
// the *next* recovery.
func TestTortureRecoveredStoreIsWritable(t *testing.T) {
	dir := t.TempDir()
	s := openTestKV(t, dir, 1, SyncNone)
	for k := uint64(0); k < 16; k++ {
		s.Put(k, EncodeValue(k))
	}
	st, err := os.Stat(s.walPath(0))
	if err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(s.walPath(0))
	if err != nil {
		t.Fatal(err)
	}
	recSize := st.Size() / 16
	img := cloneDirWithWAL(t, dir, wal[:st.Size()-recSize/2]) // mid-record cut
	r, err := OpenSharded(img, 1, mkStd, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	r.Put(100, []byte("appended-after-recovery"))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenSharded(img, 1, mkStd, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if v, ok := r2.Get(100); !ok || string(v) != "appended-after-recovery" {
		t.Fatalf("record appended after a torn-tail recovery was lost: %q, %v", v, ok)
	}
	if n := len(r2.Snapshot()); n != 16 { // 15 survivors + the appended key
		t.Fatalf("recovered %d keys, want 16", n)
	}
}

// TestTortureMultiShardNeverCorrupts cuts every shard's log independently
// at random offsets: whatever survives must be values that were actually
// written — a recovered store may be behind, never wrong.
func TestTortureMultiShardNeverCorrupts(t *testing.T) {
	trials := 8
	nOps := 300
	if testing.Short() {
		trials, nOps = 3, 100
	}
	dir := t.TempDir()
	s := openTestKV(t, dir, 8, SyncNone)
	rng := xrand.NewXorShift64(0xC0FFEE)
	history := map[uint64]map[string]bool{}
	record := func(k uint64, v []byte) {
		if history[k] == nil {
			history[k] = map[string]bool{}
		}
		history[k][string(v)] = true
	}
	for i := 0; i < nOps; i++ {
		k := rng.Next() % 256
		switch rng.Intn(8) {
		case 0:
			s.Delete(k)
		case 1:
			keys := make([]uint64, 8)
			vals := make([][]byte, 8)
			for j := range keys {
				keys[j] = rng.Next() % 256
				vals[j] = EncodeValue(rng.Next())
				record(keys[j], vals[j])
			}
			s.MultiPut(keys, vals)
		default:
			v := EncodeValue(rng.Next())
			s.Put(k, v)
			record(k, v)
		}
	}
	// No Close. Capture all shard logs and the manifest.
	man, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	wals := make([][]byte, 8)
	for i := range wals {
		if wals[i], err = os.ReadFile(s.walPath(i)); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < trials; trial++ {
		img := t.TempDir()
		if err := os.WriteFile(filepath.Join(img, manifestName), man, 0o644); err != nil {
			t.Fatal(err)
		}
		for i, wal := range wals {
			cut := rng.Next() % uint64(len(wal)+1)
			name := filepath.Join(img, filepath.Base(s.walPath(i)))
			if err := os.WriteFile(name, wal[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		r, err := OpenSharded(img, 8, mkStd, SyncNone)
		if err != nil {
			t.Fatalf("trial %d: reopen: %v", trial, err)
		}
		r.Range(func(k uint64, v []byte) bool {
			if !history[k][string(v)] {
				t.Errorf("trial %d: key %d recovered value %x that was never written", trial, k, v)
			}
			return true
		})
		r.Close()
	}
}
