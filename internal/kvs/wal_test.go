package kvs

import (
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// openTestKV opens a durable engine over dir with plain locks.
func openTestKV(t *testing.T, dir string, shards int, policy SyncPolicy) *Sharded {
	t.Helper()
	s, err := OpenSharded(dir, shards, mkStd, policy)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTestKV(t, dir, 4, SyncAlways)
	s.Put(1, []byte("one"))
	s.Put(2, []byte("two"))
	s.PutTTL(3, []byte("soon"), time.Hour)
	s.Put(4, []byte("gone"))
	s.Delete(4)
	s.MultiPut([]uint64{5, 6}, [][]byte{[]byte("five"), []byte("six")})
	s.MultiDelete([]uint64{6})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := openTestKV(t, dir, 4, SyncAlways)
	defer r.Close()
	want := map[uint64]string{1: "one", 2: "two", 3: "soon", 5: "five"}
	snap := r.Snapshot()
	if len(snap) != len(want) {
		t.Fatalf("recovered %d keys %v, want %d", len(snap), snap, len(want))
	}
	for k, v := range want {
		got, ok := r.Get(k)
		if !ok || string(got) != v {
			t.Fatalf("recovered Get(%d) = %q, %v; want %q", k, got, ok, v)
		}
	}
	for _, k := range []uint64{4, 6} {
		if _, ok := r.Get(k); ok {
			t.Fatalf("deleted key %d survived recovery", k)
		}
	}
}

func TestDurableRecoveryWithoutClose(t *testing.T) {
	dir := t.TempDir()
	s := openTestKV(t, dir, 2, SyncNone)
	s.Put(10, []byte("a"))
	s.Put(11, []byte("b"))
	// No Close: the "crash". Records hit the file at write time, so they
	// must all be recoverable.
	r := openTestKV(t, dir, 2, SyncNone)
	defer r.Close()
	for k, v := range map[uint64]string{10: "a", 11: "b"} {
		if got, ok := r.Get(k); !ok || string(got) != v {
			t.Fatalf("Get(%d) = %q, %v after crash recovery", k, got, ok)
		}
	}
}

func TestDurableTTLSurvivesRestartAsRemaining(t *testing.T) {
	dir := t.TempDir()
	s := openTestKV(t, dir, 1, SyncAlways)
	s.PutTTL(1, []byte("live"), time.Hour)
	s.put(2, []byte("dead"), -1) // born expired
	s.Close()

	r := openTestKV(t, dir, 1, SyncAlways)
	defer r.Close()
	if _, ok := r.Get(1); !ok {
		t.Fatal("hour-long TTL expired across an instant restart")
	}
	if _, ok := r.Get(2); ok {
		t.Fatal("born-expired key became visible after recovery")
	}
	// The far-future saturation case: MaxInt64 deadline must not wrap.
	s2 := openTestKV(t, t.TempDir(), 1, SyncAlways)
	s2.put(3, []byte("forever"), math.MaxInt64)
	dir2 := s2.Dir()
	s2.Close()
	r2 := openTestKV(t, dir2, 1, SyncAlways)
	defer r2.Close()
	if _, ok := r2.Get(3); !ok {
		t.Fatal("saturated deadline expired across restart")
	}
}

func TestDurableAsyncFlushIsLogged(t *testing.T) {
	dir := t.TempDir()
	s := openTestKV(t, dir, 2, SyncNone)
	s.PutAsync(1, []byte("q1"))
	s.PutAsync(2, []byte("q2"))
	s.Flush()
	s.PutAsync(3, []byte("never-applied"))
	// Crash without Close: the queued-but-unapplied write was never logged.
	r := openTestKV(t, dir, 2, SyncNone)
	defer r.Close()
	for k, v := range map[uint64]string{1: "q1", 2: "q2"} {
		if got, ok := r.Get(k); !ok || string(got) != v {
			t.Fatalf("flushed async write %d = %q, %v after recovery", k, got, ok)
		}
	}
	if _, ok := r.Get(3); ok {
		t.Fatal("an async write that never applied was recovered")
	}
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s := openTestKV(t, dir, 2, SyncAlways)
	for k := uint64(0); k < 64; k++ {
		s.Put(k, EncodeValue(k))
	}
	s.Delete(7)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Logs are truncated: fresh records only after the checkpoint.
	for i := 0; i < s.NumShards(); i++ {
		st, err := os.Stat(s.walPath(i))
		if err != nil {
			t.Fatalf("wal %d: %v", i, err)
		}
		if st.Size() != 0 {
			t.Fatalf("wal %d is %d bytes after checkpoint, want 0", i, st.Size())
		}
		if _, err := os.Stat(s.walOldPath(i)); !os.IsNotExist(err) {
			t.Fatalf("wal.old %d survived the checkpoint", i)
		}
	}
	s.Put(100, []byte("tail"))
	total := s.Stats().Total()
	if total.Checkpoints != uint64(s.NumShards()) {
		t.Fatalf("Checkpoints = %d, want %d", total.Checkpoints, s.NumShards())
	}
	s.Close()

	r := openTestKV(t, dir, 2, SyncAlways)
	defer r.Close()
	if n := len(r.Snapshot()); n != 64 { // 64 puts - delete + tail
		t.Fatalf("recovered %d keys, want 64", n)
	}
	if _, ok := r.Get(7); ok {
		t.Fatal("checkpoint resurrected a deleted key")
	}
	if v, ok := r.Get(100); !ok || string(v) != "tail" {
		t.Fatal("post-checkpoint tail record lost")
	}
}

// TestCheckpointCompactsExpired: expired residue is dropped from the
// snapshot, so recovery starts clean.
func TestCheckpointCompactsExpired(t *testing.T) {
	dir := t.TempDir()
	s := openTestKV(t, dir, 1, SyncAlways)
	s.put(1, []byte("dead"), -1)
	s.Put(2, []byte("live"))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := openTestKV(t, dir, 1, SyncAlways)
	defer r.Close()
	if n := r.Len(); n != 1 {
		t.Fatalf("recovered %d resident keys, want 1 (expired residue compacted)", n)
	}
}

// TestRecoveryCrashWindows drives the opener through the on-disk states a
// crash can leave mid-checkpoint, by file surgery.
func TestRecoveryCrashWindows(t *testing.T) {
	// Window 1: crash after rotation, before the snapshot rename —
	// old snapshot + complete wal.old + fresh wal tail.
	t.Run("after-rotate", func(t *testing.T) {
		dir := t.TempDir()
		s := openTestKV(t, dir, 1, SyncAlways)
		s.Put(1, []byte("v1"))
		s.Checkpoint() // produces shard-0000.snap, empty wal
		s.Put(2, []byte("v2"))
		s.Close()
		// Simulate: wal → wal.old, empty wal, snapshot still the old one.
		if err := os.Rename(s.walPath(0), s.walOldPath(0)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.walPath(0), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		r := openTestKV(t, dir, 1, SyncAlways)
		defer r.Close()
		for k, v := range map[uint64]string{1: "v1", 2: "v2"} {
			if got, ok := r.Get(k); !ok || string(got) != v {
				t.Fatalf("Get(%d) = %q, %v", k, got, ok)
			}
		}
		// Recovery re-ran the checkpoint: wal.old is gone again.
		if _, err := os.Stat(r.walOldPath(0)); !os.IsNotExist(err) {
			t.Fatal("recovery left wal.old behind")
		}
	})

	// Window 2: crash between snapshot rename and wal.old removal — the
	// new snapshot already covers wal.old, replay must be idempotent.
	t.Run("after-snap-rename", func(t *testing.T) {
		dir := t.TempDir()
		s := openTestKV(t, dir, 1, SyncAlways)
		s.Put(1, []byte("a"))
		s.Put(1, []byte("b")) // overwrite: final record must win twice
		s.Delete(9)
		s.Checkpoint()
		s.Close()
		// Reconstruct the covered generation: the checkpoint deleted
		// wal.old, so rebuild it as "records the snapshot covers" by
		// replaying the same ops into a scratch dir and stealing its wal.
		scratch := t.TempDir()
		s2 := openTestKV(t, scratch, 1, SyncAlways)
		s2.Put(1, []byte("a"))
		s2.Put(1, []byte("b"))
		s2.Delete(9)
		s2.Close()
		walOld, err := os.ReadFile(s2.walPath(0))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.walOldPath(0), walOld, 0o644); err != nil {
			t.Fatal(err)
		}
		r := openTestKV(t, dir, 1, SyncAlways)
		defer r.Close()
		if got, ok := r.Get(1); !ok || string(got) != "b" {
			t.Fatalf("Get(1) = %q, %v; want \"b\"", got, ok)
		}
		if n := len(r.Snapshot()); n != 1 {
			t.Fatalf("recovered %d keys, want 1", n)
		}
	})

	// Leftover .snap.tmp from an interrupted snapshot write is discarded.
	t.Run("snap-tmp-garbage", func(t *testing.T) {
		dir := t.TempDir()
		s := openTestKV(t, dir, 1, SyncAlways)
		s.Put(1, []byte("x"))
		s.Close()
		if err := os.WriteFile(s.snapPath(0)+".tmp", []byte("half a snapsho"), 0o644); err != nil {
			t.Fatal(err)
		}
		r := openTestKV(t, dir, 1, SyncAlways)
		defer r.Close()
		if _, ok := r.Get(1); !ok {
			t.Fatal("recovery failed under a leftover .snap.tmp")
		}
		if _, err := os.Stat(r.snapPath(0) + ".tmp"); !os.IsNotExist(err) {
			t.Fatal(".snap.tmp not cleaned up")
		}
	})
}

// TestRotateMergesExistingOldGeneration: when a checkpoint dies between
// its rotation and its snapshot publish, wal.old holds the only copy of
// that generation's records. A retried checkpoint's rotation must merge
// the current log into it — renaming over it would destroy acknowledged
// writes if the retry then crashes before publishing.
func TestRotateMergesExistingOldGeneration(t *testing.T) {
	dir := t.TempDir()
	s := openTestKV(t, dir, 1, SyncAlways)
	s.Put(1, []byte("first-generation"))
	w := s.shards[0].wal
	// A checkpoint's rotation, with the checkpoint then dying before its
	// snapshot publish: wal.old now holds record 1, covered by no snapshot.
	w.mu.Lock()
	err := w.rotate(s.walPath(0), s.walOldPath(0))
	w.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	s.Put(2, []byte("second-generation"))
	// The retry's rotation step: wal.old already exists and must absorb,
	// not lose, the current log.
	w.mu.Lock()
	err = w.rotate(s.walPath(0), s.walOldPath(0))
	w.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	s.Put(3, []byte("tail"))
	// Crash: no Close, and no snapshot was ever published.
	r := openTestKV(t, dir, 1, SyncAlways)
	defer r.Close()
	for k, v := range map[uint64]string{1: "first-generation", 2: "second-generation", 3: "tail"} {
		if got, ok := r.Get(k); !ok || string(got) != v {
			t.Fatalf("Get(%d) = %q, %v; want %q — a rotation clobbered the uncovered generation", k, got, ok, v)
		}
	}
	// Recovery collapsed the interrupted checkpoint: wal.old pruned.
	if _, err := os.Stat(r.walOldPath(0)); !os.IsNotExist(err) {
		t.Fatal("recovery left wal.old behind")
	}
}

func TestManifestPinsShardCount(t *testing.T) {
	dir := t.TempDir()
	s := openTestKV(t, dir, 4, SyncNone)
	s.Put(1, []byte("x"))
	s.Close()
	if _, err := OpenSharded(dir, 8, mkStd, SyncNone); err == nil {
		t.Fatal("reopening with a different shard count was accepted")
	} else if !strings.Contains(err.Error(), "4 shards") {
		t.Fatalf("mismatch error %q does not name the recorded count", err)
	}
	// Same count still opens.
	r := openTestKV(t, dir, 4, SyncNone)
	r.Close()
	// Shard files without a MANIFEST are refused, not guessed at.
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSharded(dir, 4, mkStd, SyncNone); err == nil {
		t.Fatal("shard files without MANIFEST were accepted")
	}
}

func TestVolatileEngineRejectsDurableOps(t *testing.T) {
	s, _ := NewSharded(2, mkStd)
	if err := s.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on a volatile engine succeeded")
	}
	if s.Durable() || s.Dir() != "" || s.WALError() != nil {
		t.Fatal("volatile engine claims durability state")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("volatile Close: %v", err)
	}
	total := s.Stats().Total()
	if total.WALRecords != 0 || total.WALBytes != 0 {
		t.Fatal("volatile engine counted WAL traffic")
	}
}

func TestCloseIsIdempotentAndLateWritesDegrade(t *testing.T) {
	dir := t.TempDir()
	s := openTestKV(t, dir, 1, SyncAlways)
	s.Put(1, []byte("x"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// A write after Close stays visible in memory but records a WAL error.
	s.Put(2, []byte("late"))
	if _, ok := s.Get(2); !ok {
		t.Fatal("late write lost from memory")
	}
	if err := s.WALError(); err == nil {
		t.Fatal("late write did not record a WAL error")
	}
	if s.Stats().Total().WALErrors == 0 {
		t.Fatal("WALErrors counter did not move")
	}
}

func TestSyncPolicyFlagRoundTrip(t *testing.T) {
	for _, p := range []SyncPolicy{SyncNone, SyncAlways} {
		got, err := ParseSyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseSyncPolicy("fsync-sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// TestDurableStatsCountGroupCommit: one MultiPut over one shard is one WAL
// record carrying the whole group — the amortization the design claims.
func TestDurableStatsCountGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s := openTestKV(t, dir, 1, SyncAlways)
	defer s.Close()
	keys := make([]uint64, 32)
	vals := make([][]byte, 32)
	for i := range keys {
		keys[i] = uint64(i)
		vals[i] = EncodeValue(uint64(i))
	}
	s.MultiPut(keys, vals)
	total := s.Stats().Total()
	if total.WALRecords != 1 || total.WALKeys != 32 {
		t.Fatalf("WAL records/keys = %d/%d, want 1/32 (group commit)", total.WALRecords, total.WALKeys)
	}
	if total.WALSyncs != 1 {
		t.Fatalf("WALSyncs = %d, want 1 fsync for the whole batch", total.WALSyncs)
	}
	s.Put(99, []byte("single"))
	total = s.Stats().Total()
	if total.WALRecords != 2 || total.WALKeys != 33 {
		t.Fatalf("after single put: records/keys = %d/%d, want 2/33", total.WALRecords, total.WALKeys)
	}
}

// The multi-shard crash matrix. A checkpoint publishes shard by shard, syncs
// the directory once, then prunes shard by shard, so a crash leaves every
// shard, independently, in one of these states. ckptCrashImage assembles a
// directory from them by file surgery on two generations of a real engine.
type ckptShardState int

const (
	ckptUntouched  ckptShardState = iota // old snapshot + log: the checkpoint never reached the shard
	ckptRotated                          // old snapshot + .wal.old + empty log
	ckptRotatedTmp                       // ckptRotated + the whole new image still under .snap.tmp (rename lost)
	ckptTornTmp                          // ckptRotated + half an image under .snap.tmp
	ckptPublished                        // new snapshot + .wal.old + empty log
	ckptPruned                           // new snapshot + empty log
)

func shardFile(dir string, i int, ext string) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d%s", i, ext))
}

func copyFile(t *testing.T, dst, src string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// ckptCrashFixture runs two generations of writes over a 4-shard engine and
// returns the directory as the second checkpoint found it (pre: the first
// checkpoint's snapshots plus the log written since), the same directory
// after that checkpoint completed (post), the state both hold, and the
// per-shard LSNs both end at.
func ckptCrashFixture(t *testing.T) (pre, post string, model map[uint64][]byte, lsns []uint64) {
	t.Helper()
	pre, post = t.TempDir(), t.TempDir()
	model = map[uint64][]byte{}
	s := openTestKV(t, pre, 4, SyncNone)
	put := func(k uint64, v string) { s.Put(k, []byte(v)); model[k] = []byte(v) }
	del := func(k uint64) { s.Delete(k); delete(model, k) }
	for k := uint64(0); k < 200; k++ {
		put(k, fmt.Sprintf("gen1-%d", k))
	}
	del(3)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(100); k < 300; k += 3 {
		put(k, fmt.Sprintf("gen2-%d-longer-than-the-cell-it-replaces", k))
	}
	for k := uint64(0); k < 100; k += 7 {
		del(k)
	}
	s.PutTTL(1000, []byte("leased"), time.Hour)
	model[1000] = []byte("leased")
	lsns = s.ReplLSNs()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(pre, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		copyFile(t, filepath.Join(post, filepath.Base(n)), n)
	}
	p := openTestKV(t, post, 4, SyncNone)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return pre, post, model, lsns
}

// ckptCrashImage builds the directory a crash left with shard i in states[i].
func ckptCrashImage(t *testing.T, pre, post string, states []ckptShardState) string {
	t.Helper()
	dir := t.TempDir()
	copyFile(t, filepath.Join(dir, manifestName), filepath.Join(pre, manifestName))
	for i, st := range states {
		snapFrom, logTo := pre, ".wal.old"
		if st == ckptPublished || st == ckptPruned {
			snapFrom = post
		}
		if st == ckptUntouched {
			logTo = ".wal"
		}
		copyFile(t, shardFile(dir, i, ".snap"), shardFile(snapFrom, i, ".snap"))
		if st != ckptPruned {
			copyFile(t, shardFile(dir, i, logTo), shardFile(pre, i, ".wal"))
		}
		if st != ckptUntouched {
			if err := os.WriteFile(shardFile(dir, i, ".wal"), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if st == ckptRotatedTmp || st == ckptTornTmp {
			img, err := os.ReadFile(shardFile(post, i, ".snap"))
			if err != nil {
				t.Fatal(err)
			}
			if st == ckptTornTmp {
				img = img[:len(img)/2]
			}
			if err := os.WriteFile(shardFile(dir, i, ".snap.tmp"), img, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dir
}

// expectRecovered reopens dir and checks the contract every crash state
// owes: exactly the model, every shard's LSN sequence continued, and no
// checkpoint residue left behind — before and after one more restart.
func expectRecovered(t *testing.T, dir string, model map[uint64][]byte, lsns []uint64) {
	t.Helper()
	for round := 0; round < 2; round++ {
		r := openTestKV(t, dir, len(lsns), SyncNone)
		if got := r.Snapshot(); !mapsEqualKV(got, model) {
			t.Fatalf("reopen %d: recovered %d keys, want the model's %d (or values differ)", round, len(got), len(model))
		}
		if got := r.ReplLSNs(); !slices.Equal(got, lsns) {
			t.Fatalf("reopen %d: LSNs %v, want %v", round, got, lsns)
		}
		for _, pat := range []string{"*.wal.old", "*.tmp"} {
			if m, _ := filepath.Glob(filepath.Join(dir, pat)); len(m) > 0 {
				t.Fatalf("reopen %d: recovery left %v behind", round, m)
			}
		}
		// The sequence continues: the next record on a shard is lsn+1.
		k := uint64(5000 + round)
		r.Put(k, []byte("after"))
		model[k] = []byte("after")
		lsns[r.ShardOf(k)]++
		if got := r.ShardLSN(r.ShardOf(k)); got != lsns[r.ShardOf(k)] {
			t.Fatalf("reopen %d: a write after recovery got LSN %d, want %d", round, got, lsns[r.ShardOf(k)])
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckpointCrashMatrix(t *testing.T) {
	pre, post, model, lsns := ckptCrashFixture(t)
	for _, c := range []struct {
		name   string
		states []ckptShardState
	}{
		// (a) every shard renamed, none pruned, and the one directory sync
		// lost: each rename is independently there or not.
		{"renamed-none-pruned", []ckptShardState{ckptPublished, ckptPublished, ckptPublished, ckptPublished}},
		{"renamed-dir-sync-lost", []ckptShardState{ckptPublished, ckptRotatedTmp, ckptRotatedTmp, ckptPublished}},
		{"renamed-every-one-lost", []ckptShardState{ckptRotatedTmp, ckptRotatedTmp, ckptRotatedTmp, ckptRotatedTmp}},
		// (b) the prune phase died half-way.
		{"half-pruned", []ckptShardState{ckptPruned, ckptPruned, ckptPublished, ckptPublished}},
		// (c) shard k's image written (or torn) but not renamed; shards
		// before it published and — the new order — not yet pruned; the
		// shard after it not reached, or already rotated by the capture
		// stage running ahead.
		{"mid-publish", []ckptShardState{ckptPublished, ckptPublished, ckptRotatedTmp, ckptUntouched}},
		{"mid-publish-torn", []ckptShardState{ckptPublished, ckptPublished, ckptTornTmp, ckptRotated}},
		{"mid-publish-shard-0", []ckptShardState{ckptTornTmp, ckptRotated, ckptUntouched, ckptUntouched}},
	} {
		t.Run(c.name, func(t *testing.T) {
			expectRecovered(t, ckptCrashImage(t, pre, post, c.states), maps.Clone(model), slices.Clone(lsns))
		})
	}

	// (d) one shard enters the checkpoint with a .wal.old a dead checkpoint
	// left (rotated, never published): its rotation must merge, the others
	// rename, and the one pass over all four must fold both generations in.
	t.Run("merge-path-on-one-shard", func(t *testing.T) {
		dir := t.TempDir()
		s := openTestKV(t, dir, 4, SyncNone)
		model := map[uint64][]byte{}
		put := func(k uint64, v string) { s.Put(k, []byte(v)); model[k] = []byte(v) }
		for k := uint64(0); k < 64; k++ {
			put(k, fmt.Sprintf("first-%d", k))
		}
		w := s.shards[1].wal
		w.mu.Lock()
		err := w.rotate(s.walPath(1), s.walOldPath(1))
		w.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(32); k < 96; k++ {
			put(k, fmt.Sprintf("second-%d", k))
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		put(200, "tail")
		if got := s.Snapshot(); !mapsEqualKV(got, model) {
			t.Fatal("the live engine diverged from the model across the checkpoint")
		}
		// Crash: no Close.
		expectRecovered(t, dir, model, s.ReplLSNs())
	})
}

// TestCheckpointFailureCleansUpAndRetries: a shard whose image cannot be
// written fails the checkpoint by name, without abandoning the stage in
// flight, without leaving a tmp behind, without pruning a log no snapshot
// covers, and without costing a single acknowledged write; once the obstacle
// is gone the next checkpoint folds everything in.
func TestCheckpointFailureCleansUpAndRetries(t *testing.T) {
	dir := t.TempDir()
	s := openTestKV(t, dir, 4, SyncNone)
	model := map[uint64][]byte{}
	put := func(k uint64, v string) { s.Put(k, []byte(v)); model[k] = []byte(v) }
	for k := uint64(0); k < 128; k++ {
		put(k, fmt.Sprintf("before-%d", k))
	}
	// A non-empty directory where shard 2's tmp goes: the open fails and the
	// best-effort cleanup cannot remove it either.
	obstacle := s.snapPath(2) + ".tmp"
	if err := os.MkdirAll(filepath.Join(obstacle, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	err := s.Checkpoint()
	if err == nil || !strings.Contains(err.Error(), "shard 2") {
		t.Fatalf("Checkpoint over an unwritable shard 2 = %v, want an error naming it", err)
	}
	for i := 0; i < 4; i++ {
		_, snapErr := os.Stat(s.snapPath(i))
		_, oldErr := os.Stat(s.walOldPath(i))
		if published := i < 2; published != (snapErr == nil) || published != os.IsNotExist(oldErr) {
			t.Fatalf("shard %d after the failure: snapshot err %v, .wal.old err %v (published shards are pruned, the rest keep their rotated log)", i, snapErr, oldErr)
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 1 || tmps[0] != obstacle {
		t.Fatalf("tmp files after the failure: %v, want only the obstacle", tmps)
	}
	if got := s.Stats().Total().Checkpoints; got != 2 {
		t.Fatalf("Checkpoints = %d after two of four shards published", got)
	}
	for k := uint64(128); k < 160; k++ {
		put(k, fmt.Sprintf("after-%d", k))
	}
	if got := s.Snapshot(); !mapsEqualKV(got, model) {
		t.Fatal("a failed checkpoint lost acknowledged writes from the live engine")
	}
	// Survives a crash in that state: reopen a copy of the files.
	crashed := t.TempDir()
	names, _ := filepath.Glob(filepath.Join(dir, "*"))
	for _, n := range names {
		if n != obstacle {
			copyFile(t, filepath.Join(crashed, filepath.Base(n)), n)
		}
	}
	expectRecovered(t, crashed, maps.Clone(model), s.ReplLSNs())

	if err := os.RemoveAll(obstacle); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after the obstacle was removed: %v", err)
	}
	if err := s.WALError(); err != nil {
		t.Fatalf("WALError after a snapshot-file failure: %v (the logs were never at fault)", err)
	}
	lsns := s.ReplLSNs()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	expectRecovered(t, dir, model, lsns)
}
