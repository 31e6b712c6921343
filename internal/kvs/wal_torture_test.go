package kvs

// Crash-recovery torture: write the harness's write family through the WAL,
// "crash" (no Close), mutilate the log — truncation at every record
// boundary, at random mid-record offsets, and single-bit corruption — and
// demand that OpenSharded recovers exactly the state of some prefix of the
// applied operations. The oracle is independent of the decoder under test:
// the log's logical end (the offset the WAL publishes after each record, not
// the file's size, which on Linux is the reserved window) is recorded after
// every operation, so for a truncation at L bytes the expected state is the
// fold of the operations whose records fit entirely within L. An operation
// may log nothing (a Reap, an aborted Txn) or several keys in one record (a
// MultiPut on one shard); the offsets handle both. Torn tails are dropped,
// never corrupt.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// cloneDirWithWAL copies MANIFEST into a fresh directory and installs
// wals[i] as shard i's log — the "disk image" a crash left behind.
func cloneDirWithWAL(t *testing.T, srcDir string, wals ...[]byte) string {
	t.Helper()
	dst := t.TempDir()
	man, err := os.ReadFile(filepath.Join(srcDir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, manifestName), man, 0o644); err != nil {
		t.Fatal(err)
	}
	for i, wal := range wals {
		if err := os.WriteFile(filepath.Join(dst, fmt.Sprintf("shard-%04d.wal", i)), wal, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// walEnd is shard i's published log end: the byte offset just past its
// last complete record.
func walEnd(s *Sharded, i int) int64 {
	return s.shards[i].wal.end.Load()
}

func TestTortureTruncatedTailIsPrefixConsistent(t *testing.T) {
	nOps, nCuts := 160, 60
	if testing.Short() {
		nOps, nCuts = 60, 15
	}
	dir := t.TempDir()
	s := openTestKV(t, dir, 1, SyncNone)
	d := newDriver(t, s, 0x7027012E, 0, 64, true, writeOps)
	ops := make([]op, nOps)
	offsets := make([]int64, len(ops))
	walPath := s.walPath(0)
	for i := range ops {
		ops[i] = d.next()
		d.do(ops[i])
		offsets[i] = walEnd(s, 0)
	}
	// The crash: no Close. Every record was in the file when its write
	// returned, so the bytes are all there, followed (where the log is
	// mapped) by the reservation's zeros; the mutilations below simulate
	// what a real crash (or a half-written sector) can leave.
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	end := offsets[len(offsets)-1]
	if int64(len(wal)) < end || len(bytes.TrimLeft(wal[end:], "\x00")) > 0 {
		t.Fatalf("wal is %d bytes, offsets say its records end at %d and only zeros follow", len(wal), end)
	}
	// prefixFor: how many ops are fully on disk in the first L bytes.
	prefixFor := func(L int64) int {
		n := 0
		for n < len(offsets) && offsets[n] <= L {
			n++
		}
		return n
	}
	// recovers opens the image and demands the fold of its first n ops.
	recovers := func(img string, n int, label string) {
		r := openTestKV(t, img, 1, SyncNone)
		defer r.Close()
		requireState(t, r, foldOps(ops[:n]), label)
	}
	cut := func(L int64, label string) {
		recovers(cloneDirWithWAL(t, dir, wal[:L]), prefixFor(L), label)
	}
	// Every record boundary, including the empty log and the full log, and
	// the whole file as the crash left it, zero tail included.
	cut(0, "empty")
	for i, off := range offsets {
		if i == len(offsets)-1 || off != offsets[i+1] {
			cut(off, "boundary")
		}
	}
	cut(int64(len(wal)), "whole-file")
	// Random offsets into the records, most of them mid-record.
	for c := 0; c < nCuts; c++ {
		cut(int64(d.rng.Next()%uint64(end+1)), "random")
	}
	// Single-bit corruption: everything after the flipped byte's record is
	// dropped; nothing before it is touched; no panic, no garbage value.
	for c := 0; c < nCuts/3; c++ {
		p := int(d.rng.Next() % uint64(end))
		mut := append([]byte(nil), wal...)
		mut[p] ^= 1 << (d.rng.Next() % 8)
		recovers(cloneDirWithWAL(t, dir, mut), prefixFor(int64(p)), "bitflip")
	}
}

// TestTortureRecoveredStoreIsWritable: after recovering from a mid-record
// cut — or from the whole file an unclosed mapped log leaves, zeros after
// its records — the reopened engine must truncate the tail before
// appending; otherwise its own new records would sit beyond garbage and be
// lost to the *next* recovery.
func TestTortureRecoveredStoreIsWritable(t *testing.T) {
	dir := t.TempDir()
	s := openTestKV(t, dir, 1, SyncNone)
	for k := uint64(0); k < 16; k++ {
		s.Put(k, EncodeValue(k))
	}
	end := walEnd(s, 0)
	wal, err := os.ReadFile(s.walPath(0))
	if err != nil {
		t.Fatal(err)
	}
	recSize := end / 16
	for _, c := range []struct {
		name string
		img  []byte
		want int
	}{
		{"mid-record", wal[:end-recSize/2], 16}, // 15 survivors + the appended key
		{"whole-file", wal, 17},                 // 16 survivors + the appended key
	} {
		img := cloneDirWithWAL(t, dir, c.img)
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
		if v, ok := r2.Get(100); !ok || string(v) != "appended-after-recovery" {
			t.Fatalf("%s: record appended after a torn-tail recovery was lost: %q, %v", c.name, v, ok)
		}
		if n := len(r2.Snapshot()); n != c.want {
			t.Fatalf("%s: recovered %d keys, want %d", c.name, n, c.want)
		}
		r2.Close()
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
	d := newDriver(t, s, 0xC0FFEE, 0, 256, true, writeOps)
	history := map[uint64]map[string]bool{} // every value the model ever held
	for i := 0; i < nOps; i++ {
		d.do(d.next())
		for k, v := range d.m {
			if history[k] == nil {
				history[k] = map[string]bool{}
			}
			history[k][string(v)] = true
		}
	}
	// No Close. Capture all shard logs.
	wals := make([][]byte, 8)
	for i := range wals {
		var err error
		if wals[i], err = os.ReadFile(s.walPath(i)); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < trials; trial++ {
		cuts := make([][]byte, len(wals))
		for i, wal := range wals {
			cuts[i] = wal[:d.rng.Next()%uint64(len(wal)+1)]
		}
		r, err := OpenSharded(cloneDirWithWAL(t, dir, cuts...), 8, mkStd, SyncNone)
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
