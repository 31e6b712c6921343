package kvs

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/locks/pfq"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/xrand"
)

func mkStd() rwl.RWLock   { return new(stdrw.Lock) }
func mkBravo() rwl.RWLock { return core.New(new(pfq.Lock)) }
func mkAdaptive() rwl.RWLock {
	return core.New(new(pfq.Lock), core.WithPolicy(bias.NewAdaptor(smallWindow())))
}

func TestNewShardedValidatesShardCount(t *testing.T) {
	for _, n := range []int{0, -1, 3, 6, 12} {
		if _, err := NewSharded(n, mkStd); err == nil {
			t.Errorf("NewSharded(%d) accepted a non-power-of-two shard count", n)
		}
	}
	for _, n := range []int{1, 2, 4, 64} {
		s, err := NewSharded(n, mkStd)
		if err != nil {
			t.Fatalf("NewSharded(%d): %v", n, err)
		}
		if s.NumShards() != n {
			t.Fatalf("NumShards = %d, want %d", s.NumShards(), n)
		}
	}
}

func TestShardedCRUD(t *testing.T) {
	s, err := NewSharded(8, mkStd)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for k := uint64(0); k < n; k++ {
		s.Put(k, EncodeValue(k*3))
	}
	if got := s.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for k := uint64(0); k < n; k++ {
		v, ok := s.Get(k)
		if !ok {
			t.Fatalf("Get(%d) missing", k)
		}
		if !bytes.Equal(v, EncodeValue(k*3)) {
			t.Fatalf("Get(%d) = %x, want %d", k, v, k*3)
		}
	}
	if _, ok := s.Get(n + 1); ok {
		t.Fatal("Get of absent key reported ok")
	}
	if !s.Delete(7) {
		t.Fatal("Delete(7) reported absent")
	}
	if s.Delete(7) {
		t.Fatal("second Delete(7) reported present")
	}
	if _, ok := s.Get(7); ok {
		t.Fatal("Get(7) found a deleted key")
	}
	if got := s.Len(); got != n-1 {
		t.Fatalf("Len after delete = %d, want %d", got, n-1)
	}
}

func TestShardedGetReturnsCopy(t *testing.T) {
	s, _ := NewSharded(1, mkStd)
	s.Put(1, []byte{1, 2, 3})
	v, _ := s.Get(1)
	v[0] = 99
	w, _ := s.Get(1)
	if w[0] != 1 {
		t.Fatal("Get returned an aliased buffer: caller mutation leaked into the store")
	}
}

func TestShardedGetInto(t *testing.T) {
	s, _ := NewSharded(2, mkStd)
	s.Put(1, []byte{1, 2, 3})
	buf := make([]byte, 0, 16)
	got, ok := s.GetInto(1, buf)
	if !ok || len(got) != 3 || got[0] != 1 {
		t.Fatalf("GetInto = %v, %v", got, ok)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("GetInto did not reuse the caller's buffer")
	}
	got2, ok := s.GetInto(99, got)
	if ok || len(got2) != 0 {
		t.Fatalf("GetInto(miss) = %v, %v", got2, ok)
	}
	if cap(got2) != cap(buf) {
		t.Fatal("GetInto(miss) dropped the caller's buffer capacity")
	}
}

func TestShardedPutInPlace(t *testing.T) {
	s, _ := NewSharded(2, mkStd)
	s.Put(5, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	s.Put(5, []byte{9, 9})
	v, ok := s.Get(5)
	if !ok || len(v) != 2 || v[0] != 9 || v[1] != 9 {
		t.Fatalf("in-place update yielded %v, want [9 9]", v)
	}
	total := s.Stats().Total()
	if total.PutsInPlace != 1 {
		t.Fatalf("PutsInPlace = %d, want 1", total.PutsInPlace)
	}
}

func TestShardedMultiGet(t *testing.T) {
	s, _ := NewSharded(4, mkStd)
	for k := uint64(0); k < 100; k++ {
		s.Put(k, EncodeValue(k))
	}
	keys := []uint64{3, 200, 41, 77, 3, 999}
	vals := s.MultiGet(keys)
	if len(vals) != len(keys) {
		t.Fatalf("MultiGet returned %d values for %d keys", len(vals), len(keys))
	}
	for i, k := range keys {
		if k < 100 {
			if !bytes.Equal(vals[i], EncodeValue(k)) {
				t.Fatalf("MultiGet[%d] (key %d) = %v", i, k, vals[i])
			}
		} else if vals[i] != nil {
			t.Fatalf("MultiGet[%d] (absent key %d) = %v, want nil", i, k, vals[i])
		}
	}
	if got := s.MultiGet(nil); len(got) != 0 {
		t.Fatalf("MultiGet(nil) = %v", got)
	}
	total := s.Stats().Total()
	if total.MultiGetKeys != uint64(len(keys)) {
		t.Fatalf("MultiGetKeys = %d, want %d", total.MultiGetKeys, len(keys))
	}
	if total.MultiGetBatches == 0 || total.MultiGetBatches > uint64(s.NumShards()) {
		t.Fatalf("MultiGetBatches = %d, want 1..%d", total.MultiGetBatches, s.NumShards())
	}
	// A present key with an empty value must be distinguishable from an
	// absent key: hits are non-nil.
	s.Put(555, nil)
	if got := s.MultiGet([]uint64{555}); got[0] == nil || len(got[0]) != 0 {
		t.Fatalf("MultiGet(empty-value hit) = %v, want non-nil empty", got[0])
	}
}

func TestShardedSnapshotAndRange(t *testing.T) {
	s, _ := NewSharded(4, mkStd)
	want := map[uint64][]byte{}
	for k := uint64(0); k < 64; k++ {
		want[k] = EncodeValue(k + 1)
		s.Put(k, want[k])
	}
	requireState(t, s, want, "Snapshot")
	seen := map[uint64]bool{}
	s.Range(func(k uint64, v []byte) bool {
		seen[k] = true
		return true
	})
	if len(seen) != len(want) {
		t.Fatalf("Range visited %d keys, want %d", len(seen), len(want))
	}
	// Early termination.
	visits := 0
	s.Range(func(k uint64, v []byte) bool {
		visits++
		return visits < 5
	})
	if visits != 5 {
		t.Fatalf("Range visited %d keys after early stop, want 5", visits)
	}
	// Per-shard snapshots cover the keyspace exactly once.
	n := 0
	for i := 0; i < s.NumShards(); i++ {
		n += len(s.SnapshotShard(i))
	}
	if n != len(want) {
		t.Fatalf("per-shard snapshots total %d keys, want %d", n, len(want))
	}
}

func TestShardedStatsCounts(t *testing.T) {
	s, _ := NewSharded(2, mkStd)
	s.Put(1, EncodeValue(1))
	s.Put(2, EncodeValue(2))
	s.Get(1)
	s.Get(42) // miss
	s.Delete(2)
	s.Delete(2) // miss
	total := s.Stats().Total()
	if total.Gets != 2 || total.GetHits != 1 {
		t.Fatalf("gets=%d hits=%d, want 2/1", total.Gets, total.GetHits)
	}
	if total.Puts != 2 {
		t.Fatalf("puts=%d, want 2", total.Puts)
	}
	if total.Deletes != 2 || total.DeleteHits != 1 {
		t.Fatalf("deletes=%d hits=%d, want 2/1", total.Deletes, total.DeleteHits)
	}
	if total.Keys != 1 {
		t.Fatalf("keys=%d, want 1", total.Keys)
	}
}

// TestShardedConcurrent storms the engine with eight harness drivers
// sharing one key space, every read checked as a stormValue, under both a
// plain and a BRAVO-wrapped lock; run with -race this is the engine's
// data-race certification.
func TestShardedConcurrent(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   rwl.Factory
	}{
		{"go-rw", mkStd},
		{"bravo-ba", mkBravo},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSharded(8, tc.mk)
			if err != nil {
				t.Fatal(err)
			}
			const keys = 512
			for k := uint64(0); k < keys; k++ {
				s.Put(k, stormValue(k, k))
			}
			iters := 3000
			if testing.Short() {
				iters = 300
			}
			var wg sync.WaitGroup
			for w := uint64(1); w <= 8; w++ {
				d := newDriver(t, s, w, 0, keys, false, readOps, writeOps)
				wg.Add(1)
				go func() { defer wg.Done(); d.run(iters) }()
			}
			wg.Wait()
			if s.Len() > keys {
				t.Fatalf("Len = %d, exceeds keyspace %d", s.Len(), keys)
			}
		})
	}
}

// TestShardedKeyDistribution checks the mix function spreads a dense
// keyspace across shards instead of clustering.
func TestShardedKeyDistribution(t *testing.T) {
	s, _ := NewSharded(8, mkStd)
	const n = 8000
	for k := uint64(0); k < n; k++ {
		s.Put(k, nil)
	}
	for i, sh := range s.Stats().Shards {
		if sh.Keys < n/16 || sh.Keys > n/4 {
			t.Errorf("shard %d holds %d of %d keys: poor distribution", i, sh.Keys, n)
		}
	}
}

func BenchmarkShardedGet(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s, _ := NewSharded(shards, mkBravo)
			for k := uint64(0); k < 1024; k++ {
				s.Put(k, EncodeValue(k))
			}
			b.RunParallel(func(pb *testing.PB) {
				rng := xrand.NewXorShift64(99)
				for pb.Next() {
					s.Get(rng.Intn(1024))
				}
			})
		})
	}
}

// BenchmarkShardedGetParallel is the in-tree answer to "does a second reader
// slow the first": every goroutine reads through its own handle from one
// 16-shard engine holding 2^18 128-byte values (beyond L2, like the
// engine-read workload), with no writer. Compare ns/op across -cpu 1,2: what
// readers share is then only what the read path itself writes.
func BenchmarkShardedGetParallel(b *testing.B) {
	s := readBenchEngine(b)
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		h := rwl.NewReader()
		rng := xrand.NewXorShift64(seed.Add(1))
		buf := make([]byte, 0, readBenchValue)
		for pb.Next() {
			buf, _ = s.GetIntoH(h, rng.Intn(readBenchKeys), buf)
		}
	})
}

// BenchmarkShardedMultiGet is the batch read on the same engine: 16 random
// keys per MultiGetIntoH through each goroutine's handle, into a reused
// result slice, so allocs/op is what the engine allocates per batch.
func BenchmarkShardedMultiGet(b *testing.B) {
	s := readBenchEngine(b)
	var seed atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		h := rwl.NewReader()
		rng := xrand.NewXorShift64(seed.Add(1))
		keys := make([]uint64, 16)
		var dst [][]byte
		for pb.Next() {
			for i := range keys {
				keys[i] = rng.Intn(readBenchKeys)
			}
			dst = s.MultiGetIntoH(h, keys, dst)
		}
	})
}

const readBenchKeys, readBenchValue = 1 << 18, 128

// readBenchEngine is the read benchmarks' engine: 16 BRAVO shards holding
// readBenchKeys values of readBenchValue bytes.
func readBenchEngine(b *testing.B) *Sharded {
	s, _ := NewSharded(16, mkBravo)
	v := make([]byte, readBenchValue)
	for k := uint64(0); k < readBenchKeys; k++ {
		s.Put(k, v)
	}
	return s
}
