package kvs

import (
	"bytes"
	"encoding/hex"
	"os"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/clock"
)

// TestSnapshotImageRoundTrip: the streaming encoder's image loads back to
// exactly the store's live entries — plain, empty, multi-word, shrunk in
// place (capacity beyond length) and TTL — with expired residue and deleted
// keys compacted away and remaining TTLs re-anchored on load.
func TestSnapshotImageRoundTrip(t *testing.T) {
	var st seqStore
	now := clock.Nanos()
	want := map[uint64][]byte{
		1: []byte("plain"),
		2: {},
		3: bytes.Repeat([]byte{0xAB}, 1001),
		4: []byte("leased"),
		6: []byte("short"),
	}
	st.putLocked(6, []byte("a value much longer than the one that replaces it in place"), 0)
	for k, v := range want {
		st.putLocked(k, v, 0)
	}
	st.putLocked(4, want[4], now+int64(time.Hour))
	st.putLocked(5, []byte("dead"), now-1)
	st.putLocked(7, []byte("deleted"), 0)
	st.removeLocked(7)

	// Rendered into dirty, reused storage: nothing of it may leak through.
	img := st.snapshotImage(bytes.Repeat([]byte{0xFF}, 4096), 77)
	entries, lsn, err := loadSnapshot(img)
	if err != nil || lsn != 77 {
		t.Fatalf("loadSnapshot(image) = lsn %d, err %v; want 77, nil", lsn, err)
	}
	if len(entries) != len(want) {
		t.Fatalf("image holds %d entries, want %d (expired and deleted keys compacted)", len(entries), len(want))
	}
	for _, e := range entries {
		if v, ok := want[e.Key]; !ok || !bytes.Equal(e.Value, v) || e.Op != OpPut {
			t.Fatalf("entry %+v, want key %d = %q", e, e.Key, v)
		}
		delete(want, e.Key)
		left := time.Duration(e.Deadline - clock.Nanos())
		if e.Key != 4 && e.Deadline != 0 {
			t.Fatalf("key %d came back with a deadline", e.Key)
		}
		if e.Key == 4 && (left > time.Hour || left < time.Hour-time.Minute) {
			t.Fatalf("key 4's TTL re-anchored to %v from now, want just under 1h", left)
		}
	}
	if len(want) != 0 {
		t.Fatalf("image lost %d keys", len(want))
	}
	if img := new(seqStore).snapshotImage(nil, 0); len(img) != len(snapMagic)+8+8+4 {
		t.Fatalf("an empty store's image is %d bytes", len(img))
	} else if entries, _, err := loadSnapshot(img); err != nil || len(entries) != 0 {
		t.Fatalf("an empty store's image loads as %d entries, err %v", len(entries), err)
	}
}

// Snapshot files written by the commit before the streaming encoder (the
// map-walking writeSnapshotFile), for a shard holding 1="one", 2="",
// 3="nine-byte" with ~2^42 ns of TTL left, an expired key and a deleted one,
// checkpointed at LSN 6 — and the same body in the legacy pre-LSN layout.
const (
	goldenSnapV2 = "4252564f534e503206000000000000000300000000000000000100000000000000030000006f6e65000200000000000000000000000103000000000000003229faffff030000090000006e696e652d62797465b08e13b8"
	goldenSnapV1 = "4252564f534e50310300000000000000000100000000000000030000006f6e65000200000000000000000000000103000000000000003229faffff030000090000006e696e652d627974657d7549fa"
)

func TestParentWrittenSnapshotsLoad(t *testing.T) {
	for _, c := range []struct {
		name, hex string
		lsn       uint64
	}{{"v2", goldenSnapV2, 6}, {"legacy-v1", goldenSnapV1, 0}} {
		t.Run(c.name, func(t *testing.T) {
			img, err := hex.DecodeString(c.hex)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			s := openTestKV(t, dir, 1, SyncNone)
			s.Close()
			if err := os.WriteFile(s.snapPath(0), img, 0o644); err != nil {
				t.Fatal(err)
			}
			r := openTestKV(t, dir, 1, SyncNone)
			defer r.Close()
			if got := r.ShardLSN(0); got != c.lsn {
				t.Fatalf("recovered at LSN %d, want %d", got, c.lsn)
			}
			want := map[uint64][]byte{1: []byte("one"), 2: {}, 3: []byte("nine-byte")}
			requireState(t, r, want, "recovered")
			if left := r.shards[0].idx.lookup(3).deadline() - clock.Nanos(); left <= 1<<41 || left > 1<<42 {
				t.Fatalf("key 3's deadline is %d ns away, want just under 2^42", left)
			}
			// And the streaming encoder carries the same state forward.
			if err := r.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			again, err := os.ReadFile(r.snapPath(0))
			if err != nil {
				t.Fatal(err)
			}
			if entries, lsn, err := loadSnapshot(again); err != nil || lsn != c.lsn || len(entries) != 3 || !bytes.HasPrefix(again, snapMagic) {
				t.Fatalf("re-checkpointed image: %d entries at LSN %d, err %v", len(entries), lsn, err)
			}
		})
	}
}

// checkpointAllocs reports the allocations of one Checkpoint of a 4-shard
// engine holding keys 128-byte values.
func checkpointAllocs(t *testing.T, keys int) float64 {
	s := openTestKV(t, t.TempDir(), 4, SyncNone)
	defer s.Close()
	v := make([]byte, 128)
	for k := 0; k < keys; k++ {
		s.Put(uint64(k), v)
	}
	return testing.AllocsPerRun(5, func() {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCheckpointAllocsIndependentOfKeys: a checkpoint allocates per shard
// (paths, file handles, two image buffers and their growth), not per key —
// the map-copying checkpoint allocated one value per key, 16× more here.
func TestCheckpointAllocsIndependentOfKeys(t *testing.T) {
	small, large := checkpointAllocs(t, 1<<10), checkpointAllocs(t, 1<<14)
	t.Logf("allocs per Checkpoint: %.0f at 2^10 keys, %.0f at 2^14", small, large)
	if large > 2*small {
		t.Fatalf("allocs per Checkpoint grew %.0f → %.0f over 16× the keys; the image must stream from the cells", small, large)
	}
}

// TestCheckpointFlushHoldsNoLock: the flush a checkpoint issues ahead of a
// shard's WAL mutex is where the disk time goes, so it must hold nothing a
// writer needs — a Put to the very shard being flushed completes while the
// flush is parked, and lands in the snapshot taken after it.
func TestCheckpointFlushHoldsNoLock(t *testing.T) {
	dir := t.TempDir()
	s := openTestKV(t, dir, 4, SyncNone)
	const victim = 2
	key := uint64(0)
	for s.ShardOf(key) != victim {
		key++
	}
	for k := uint64(0); k < 64; k++ {
		s.Put(k, []byte("before"))
	}
	entered, release := make(chan struct{}), make(chan struct{})
	s.ckptFlushHook = func(i int) {
		if i == victim {
			close(entered)
			<-release
		}
	}
	ckpt := make(chan error, 1)
	go func() { ckpt <- s.Checkpoint() }()
	<-entered
	put := make(chan struct{})
	go func() {
		s.Put(key, []byte("during-the-flush"))
		close(put)
	}()
	select {
	case <-put:
	case <-time.After(10 * time.Second):
		t.Error("a Put to the shard being flushed blocked: the pre-mutex flush holds a lock")
	}
	close(release)
	if err := <-ckpt; err != nil {
		t.Fatal(err)
	}
	<-put
	// The write preceded the capture, so the snapshot alone must carry it.
	if st, err := os.Stat(s.walPath(victim)); err != nil || st.Size() != 0 {
		t.Fatalf("shard %d's log after the checkpoint: %v, err %v; want empty", victim, st, err)
	}
	r := openTestKV(t, dir, 4, SyncNone)
	defer r.Close()
	if v, ok := r.Get(key); !ok || string(v) != "during-the-flush" {
		t.Fatalf("Get(%d) after reopen = %q, %v", key, v, ok)
	}
}

// BenchmarkCheckpoint times one Checkpoint of the engine-write workload's
// shape — 16 shards, 2^16 × 128 B keys, SyncNone — with every key
// overwritten between iterations (off the clock) so each checkpoint finds
// a dirty log to flush, rotate and prune.
func BenchmarkCheckpoint(b *testing.B) {
	const keys = 1 << 16
	dir := b.TempDir()
	s, err := OpenSharded(dir, 16, mkBravo, SyncNone)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 128)
	burst := func(gen byte) {
		for i := range val {
			val[i] = gen
		}
		for k := uint64(0); k < keys; k++ {
			s.Put(k, val)
		}
	}
	burst(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		burst(byte(i + 1))
		b.StartTimer()
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	r, err := OpenSharded(dir, 16, mkBravo, SyncNone)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	for i := range val {
		val[i] = byte(b.N)
	}
	if n := r.Len(); n != keys {
		b.Fatalf("reopened with %d keys, want %d", n, keys)
	}
	for k := uint64(0); k < keys; k++ {
		if v, ok := r.Get(k); !ok || !bytes.Equal(v, val) {
			b.Fatalf("reopened Get(%d) = %x…, %v; want generation %d", k, v[:min(len(v), 4)], ok, byte(b.N))
		}
	}
}
