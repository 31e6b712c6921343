package kvs

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/bravolock/bravo/internal/xrand"
)

func TestShardedMultiPut(t *testing.T) {
	s, _ := NewSharded(4, mkStd)
	keys := []uint64{1, 2, 3, 1000, 2000}
	vals := make([][]byte, len(keys))
	want := map[uint64][]byte{}
	for i, k := range keys {
		vals[i] = EncodeValue(k * 7)
		want[k] = vals[i]
	}
	s.MultiPut(keys, vals)
	requireState(t, s, want, "after MultiPut")
	total := s.Stats().Total()
	if total.Puts != uint64(len(keys)) {
		t.Fatalf("Puts = %d, want %d", total.Puts, len(keys))
	}
	if total.WriteBatchKeys != uint64(len(keys)) {
		t.Fatalf("WriteBatchKeys = %d, want %d", total.WriteBatchKeys, len(keys))
	}
	if total.WriteBatches == 0 || total.WriteBatches > uint64(s.NumShards()) {
		t.Fatalf("WriteBatches = %d, want 1..%d", total.WriteBatches, s.NumShards())
	}
	// The batch must touch strictly fewer lock acquisitions than keys once
	// keys share shards.
	many := make([]uint64, 64)
	manyVals := make([][]byte, 64)
	for i := range many {
		many[i] = uint64(i)
		manyVals[i] = EncodeValue(uint64(i))
	}
	before := s.Stats().Total().WriteBatches
	s.MultiPut(many, manyVals)
	groups := s.Stats().Total().WriteBatches - before
	if groups > uint64(s.NumShards()) {
		t.Fatalf("64-key MultiPut used %d write batches on %d shards", groups, s.NumShards())
	}
}

func TestShardedMultiPutDuplicateKeysLaterWins(t *testing.T) {
	s, _ := NewSharded(8, mkStd)
	s.MultiPut([]uint64{5, 5, 5}, [][]byte{EncodeValue(1), EncodeValue(2), EncodeValue(3)})
	requireState(t, s, map[uint64][]byte{5: EncodeValue(3)}, "duplicate-key MultiPut")
}

func TestShardedMultiPutLengthMismatchPanics(t *testing.T) {
	s, _ := NewSharded(2, mkStd)
	defer func() {
		if recover() == nil {
			t.Fatal("MultiPut with mismatched slice lengths did not panic")
		}
	}()
	s.MultiPut([]uint64{1, 2}, [][]byte{EncodeValue(1)})
}

func TestShardedMultiDelete(t *testing.T) {
	s, _ := NewSharded(4, mkStd)
	for k := uint64(0); k < 50; k++ {
		s.Put(k, EncodeValue(k))
	}
	// 10 present, one absent, one duplicate (second delete of 0 is a miss).
	keys := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 999, 0}
	if got := s.MultiDelete(keys); got != 10 {
		t.Fatalf("MultiDelete removed %d, want 10", got)
	}
	for k := uint64(0); k < 10; k++ {
		if _, ok := s.Get(k); ok {
			t.Fatalf("Get(%d) found a MultiDeleted key", k)
		}
	}
	if s.Len() != 40 {
		t.Fatalf("Len = %d, want 40", s.Len())
	}
	total := s.Stats().Total()
	if total.Deletes != uint64(len(keys)) || total.DeleteHits != 10 {
		t.Fatalf("Deletes = %d hits = %d, want %d/10", total.Deletes, total.DeleteHits, len(keys))
	}
	if got := s.MultiDelete(nil); got != 0 {
		t.Fatalf("MultiDelete(nil) = %d", got)
	}
}

func TestShardedMultiPutMultiGetRoundTrip(t *testing.T) {
	s, _ := NewSharded(8, mkBravo)
	const n = 300
	keys := make([]uint64, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i * 13)
		vals[i] = EncodeValue(uint64(i))
	}
	s.MultiPut(keys, vals)
	got := s.MultiGet(keys)
	for i := range keys {
		if !bytes.Equal(got[i], EncodeValue(uint64(i))) {
			t.Fatalf("MultiGet[%d] = %v after MultiPut", i, got[i])
		}
	}
}

// TestMultiGetValuesDoNotAlias: a MultiGet's values share one allocation,
// so each must end at its own capacity — appending to one value, present or
// empty, reallocates it and never writes into the value after it.
func TestMultiGetValuesDoNotAlias(t *testing.T) {
	s, _ := NewSharded(2, mkStd)
	want := map[uint64][]byte{}
	keys := make([]uint64, 12)
	for i := range keys {
		keys[i] = uint64(i)
		want[keys[i]] = []byte(fmt.Sprintf("v%d", i))
	}
	want[5] = []byte{}
	for k, v := range want {
		s.Put(k, v)
	}
	check := func(what string, vals [][]byte) {
		t.Helper()
		for i, k := range keys {
			if string(vals[i]) != string(want[k]) || vals[i] == nil {
				t.Fatalf("%s: MultiGet[%d] = %q, want %q", what, i, vals[i], want[k])
			}
		}
	}
	vals := s.MultiGet(keys)
	check("fresh", vals)
	for i := range vals {
		grown := append(vals[i], "XXXXXXXX"...)
		check(fmt.Sprintf("after appending to value %d", i), vals)
		if string(grown[:len(vals[i])]) != string(vals[i]) {
			t.Fatalf("append to value %d lost its prefix", i)
		}
	}
}

// BenchmarkShardedPutSingleVsBatched: "single-wal-none" is "single" on a
// durable SyncNone engine, so the difference is the WAL append. All three
// put 8-byte values over 1,024 hot keys on 8 shards. "single-wal-none-cold"
// is engine-write's put instead: 16 shards, 128-byte values over 2^16
// resident keys drawn at random, SyncNone, so each Put meets a cold cell,
// a cold index slot and the mapped log's cold next lines.
func BenchmarkShardedPutSingleVsBatched(b *testing.B) {
	const batch = 64
	for _, mode := range []string{"single", "batched", "single-wal-none", "single-wal-none-cold"} {
		b.Run(mode, func(b *testing.B) {
			shards, mask := 8, uint64(1023)
			cold := mode == "single-wal-none-cold"
			if cold {
				shards, mask = 16, 1<<16-1
			}
			s, err := NewSharded(shards, mkBravo)
			if mode == "single-wal-none" || cold {
				s, err = OpenSharded(b.TempDir(), shards, mkBravo, SyncNone)
			}
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			keys := make([]uint64, batch)
			vals := make([][]byte, batch)
			for i := range keys {
				vals[i] = EncodeValue(uint64(i))
				if cold {
					vals[i] = append(vals[i], make([]byte, 120)...)
				}
			}
			if cold {
				for k := uint64(0); k <= mask; k++ {
					s.Put(k, vals[k%batch])
				}
			}
			rng := xrand.NewXorShift64(1)
			b.ResetTimer()
			for n := 0; n < b.N; n += batch {
				for i := range keys {
					keys[i] = rng.Next() & mask
				}
				if mode == "batched" {
					s.MultiPut(keys, vals)
				} else {
					for i := range keys {
						s.Put(keys[i], vals[i])
					}
				}
			}
		})
	}
}

func ExampleSharded_MultiPut() {
	s, _ := NewSharded(4, mkStd)
	s.MultiPut([]uint64{1, 2}, [][]byte{[]byte("a"), []byte("b")})
	for _, v := range s.MultiGet([]uint64{1, 2, 3}) {
		fmt.Printf("%q ", v)
	}
	// Output: "a" "b" ""
}

// TestShardedBatchDuplicateKeysPositionalOrder is the adversarial pin on
// the positional last-write-wins rule: duplicates placed non-adjacently and
// interleaved with keys from other shards, where an unstable
// group-by-shard pass could reorder equal keys — and the rule must survive
// WAL replay, since the log records the batch in apply order.
func TestShardedBatchDuplicateKeysPositionalOrder(t *testing.T) {
	dir := t.TempDir()
	s := openTestKV(t, dir, 4, SyncAlways)
	// Key 7 appears at positions 0, 2, 4 and key 1 at positions 1, 5;
	// keys 2 and 3 land between them on other shards.
	keys := []uint64{7, 1, 7, 2, 7, 1, 3}
	vals := [][]byte{
		EncodeValue(100), EncodeValue(200), EncodeValue(101), EncodeValue(300),
		EncodeValue(102), EncodeValue(201), EncodeValue(400),
	}
	s.MultiPut(keys, vals)
	want := map[uint64][]byte{7: vals[4], 1: vals[5], 2: vals[3], 3: vals[6]}
	requireState(t, s, want, "live")

	// MultiDelete with a repeated key scores one hit: the first positional
	// occurrence removes it, the rest are misses, never a double count.
	if got := s.MultiDelete([]uint64{2, 2, 2}); got != 1 {
		t.Fatalf("MultiDelete dup key removed %d, want 1", got)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r := openTestKV(t, dir, 4, SyncAlways)
	defer r.Close()
	delete(want, 2)
	requireState(t, r, want, "replayed")
}
