package kvs

// Tests for ShardStats aggregation: the Add merge rules for bias_mode
// (including the "mixed" verdict and its stickiness), the monotonicity
// of bias_flips through the Total() fold under concurrent mode flips, and
// the striped read counters — where they live, and that summing them
// reports what one shared counter would.

import (
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/bravolock/bravo/internal/arch"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/xrand"
)

// TestShardStatsAddBiasMerge pins Add's bias_mode merge table: empty rows
// never poison a verdict, agreement keeps the mode, disagreement yields
// "mixed", and "mixed" is sticky once reached. Counters always sum.
func TestShardStatsAddBiasMerge(t *testing.T) {
	row := func(mode string, flips uint64) ShardStats {
		return ShardStats{BiasMode: mode, BiasFlips: flips}
	}
	cases := []struct {
		name      string
		rows      []ShardStats
		wantMode  string
		wantFlips uint64
	}{
		{"all empty", []ShardStats{row("", 0), row("", 0)}, "", 0},
		{"empty then biased", []ShardStats{row("", 0), row("biased", 2)}, "biased", 2},
		{"biased then empty", []ShardStats{row("biased", 2), row("", 0)}, "biased", 2},
		{"agreement", []ShardStats{row("neutral", 1), row("neutral", 4)}, "neutral", 5},
		{"disagreement", []ShardStats{row("biased", 1), row("neutral", 1)}, "mixed", 2},
		{"mixed is sticky", []ShardStats{row("biased", 0), row("neutral", 0), row("neutral", 3)}, "mixed", 3},
		{"mixed input folds in", []ShardStats{row("mixed", 7), row("biased", 1)}, "mixed", 8},
	}
	for _, tc := range cases {
		var total ShardStats
		for _, r := range tc.rows {
			total.Add(r)
		}
		if total.BiasMode != tc.wantMode {
			t.Errorf("%s: mode = %q, want %q", tc.name, total.BiasMode, tc.wantMode)
		}
		if total.BiasFlips != tc.wantFlips {
			t.Errorf("%s: flips = %d, want %d", tc.name, total.BiasFlips, tc.wantFlips)
		}
	}

	// Add sums the operation counters too — spot-check a pair so a future
	// field rename cannot silently drop aggregation.
	a := ShardStats{Keys: 3, Gets: 10, TxnCommits: 2, TxnKeys: 5}
	a.Add(ShardStats{Keys: 4, Gets: 1, TxnCommits: 1, TxnAborts: 6, TxnKeys: 2})
	if a.Keys != 7 || a.Gets != 11 || a.TxnCommits != 3 || a.TxnAborts != 6 || a.TxnKeys != 7 {
		t.Errorf("counter sums wrong: %+v", a)
	}
}

// TestShardedTotalFlipsMonotonicUnderFlips reads Total() in a loop under a
// flipStorm: the folded bias_flips must never go backwards, and the folded
// mode must always be a real verdict — a torn per-shard capture would
// surface here as a dip or a garbage mode.
func TestShardedTotalFlipsMonotonicUnderFlips(t *testing.T) {
	s, stop := flipStorm(t, 11, 256)
	defer stop()
	valid := map[string]bool{"biased": true, "neutral": true, "mixed": true}
	var last uint64
	for snap := 0; snap < 1500; snap++ {
		total := s.Stats().Total()
		if !valid[total.BiasMode] {
			t.Fatalf("snapshot %d: impossible total bias_mode %q", snap, total.BiasMode)
		}
		if total.BiasFlips < last {
			t.Fatalf("snapshot %d: total flips went backwards %d -> %d", snap, last, total.BiasFlips)
		}
		last = total.BiasFlips
	}
}

// TestReadStripesShareNoLine pins what a read may write: counters on a
// stripe that is exactly one sector, sector-aligned, in an allocation of its
// own — so no stripe shares a cache line with another stripe or with any
// field of any kvShard (lock, seqc, idx.tab, wal, ad and the write-side
// counters included).
func TestReadStripesShareNoLine(t *testing.T) {
	if got := unsafe.Sizeof(readStripe{}); got != arch.SectorSize {
		t.Fatalf("readStripe is %d bytes, want one sector (%d)", got, arch.SectorSize)
	}
	s, err := NewSharded(16, mkStd)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(&s.shards[0]))
	hi := lo + uintptr(len(s.shards))*unsafe.Sizeof(kvShard{})
	lo, hi = lo&^(arch.CacheLineSize-1), (hi+arch.CacheLineSize-1)&^(arch.CacheLineSize-1)
	want := readStripes()
	if want < 8 || want&(want-1) != 0 || want < runtime.GOMAXPROCS(0) {
		t.Fatalf("readStripes() = %d at GOMAXPROCS %d: want a power of two, at least 8 and at least one per P", want, runtime.GOMAXPROCS(0))
	}
	for i := range s.shards {
		sh := &s.shards[i]
		if len(sh.reads) != want {
			t.Fatalf("shard %d has %d stripes, want %d", i, len(sh.reads), want)
		}
		for j := range sh.reads {
			p := uintptr(unsafe.Pointer(&sh.reads[j]))
			if p%arch.SectorSize != 0 {
				t.Fatalf("shard %d stripe %d at %#x is not sector-aligned", i, j, p)
			}
			if p+arch.SectorSize > lo && p < hi {
				t.Fatalf("shard %d stripe %d at %#x lies on the shard array's lines [%#x, %#x)", i, j, p, lo, hi)
			}
		}
	}
	// The pick is the (thread, lock) hash: one reader lands on different
	// stripes of different shards, so readers colliding on one shard do not
	// collide on all.
	h := rwl.NewReader()
	picked := map[uintptr]bool{}
	for i := range s.shards {
		sh := &s.shards[i]
		rd, again := sh.stripe(h), sh.stripe(h)
		if rd != again {
			t.Fatalf("shard %d: one handle picked two stripes", i)
		}
		picked[uintptr(unsafe.Pointer(rd))-uintptr(unsafe.Pointer(&sh.reads[0]))] = true
	}
	if len(picked) == 1 {
		t.Fatal("one handle picked the same stripe index on all 16 shards")
	}
}

// TestOneOpSequenceCountsAsBeforeStriping drives one fixed single-threaded
// sequence through every counted path — hits, misses, expiries, batches,
// in-place and fresh puts, a retried seq read, a fallback, reads with the
// optimistic path off, transactions, a two-shard batch, reaping — and
// compares the marshalled Stats with what the commit before the counters
// were striped (and SeqReads became derived) printed for it, byte for byte.
func TestOneOpSequenceCountsAsBeforeStriping(t *testing.T) {
	const golden = `{"shards":[` +
		`{"keys":16,"ttl_keys":0,"gets":18,"get_hits":14,"puts":30,"puts_in_place":11,"deletes":3,"delete_hits":1,"multi_get_batches":4,"multi_get_keys":9,"write_batches":4,"write_batch_keys":7,"seq_reads":19,"seq_retries":6,"seq_fallbacks":2,"txn_commits":2,"txn_aborts":1,"txn_keys":2,"expired":2,"reaped":0,"snapshots":1,"wal_records":0,"wal_keys":0,"wal_syncs":0,"wal_bytes":0,"wal_errors":0,"checkpoints":0},` +
		`{"keys":18,"ttl_keys":0,"gets":30,"get_hits":20,"puts":34,"puts_in_place":15,"deletes":1,"delete_hits":1,"multi_get_batches":4,"multi_get_keys":16,"write_batches":3,"write_batch_keys":7,"seq_reads":32,"seq_retries":4,"seq_fallbacks":1,"txn_commits":1,"txn_aborts":0,"txn_keys":2,"expired":0,"reaped":0,"snapshots":0,"wal_records":0,"wal_keys":0,"wal_syncs":0,"wal_bytes":0,"wal_errors":0,"checkpoints":0},` +
		`{"keys":7,"ttl_keys":0,"gets":14,"get_hits":9,"puts":12,"puts_in_place":2,"deletes":3,"delete_hits":1,"multi_get_batches":2,"multi_get_keys":4,"write_batches":2,"write_batch_keys":4,"seq_reads":15,"seq_retries":0,"seq_fallbacks":0,"txn_commits":0,"txn_aborts":0,"txn_keys":0,"expired":3,"reaped":1,"snapshots":0,"wal_records":0,"wal_keys":0,"wal_syncs":0,"wal_bytes":0,"wal_errors":0,"checkpoints":0},` +
		`{"keys":8,"ttl_keys":0,"gets":26,"get_hits":11,"puts":19,"puts_in_place":9,"deletes":1,"delete_hits":1,"multi_get_batches":4,"multi_get_keys":9,"write_batches":2,"write_batch_keys":2,"seq_reads":25,"seq_retries":6,"seq_fallbacks":2,"txn_commits":0,"txn_aborts":0,"txn_keys":0,"expired":2,"reaped":1,"snapshots":0,"wal_records":0,"wal_keys":0,"wal_syncs":0,"wal_bytes":0,"wal_errors":0,"checkpoints":0}` +
		`]}`
	s, err := NewSharded(4, mkStd)
	if err != nil {
		t.Fatal(err)
	}
	h := rwl.NewReader()
	for k := uint64(0); k < 40; k++ {
		s.Put(k, pattern(int(k%20)))
	}
	for k := uint64(0); k < 20; k++ {
		s.Put(k, pattern(3))
	}
	for k := uint64(100); k < 104; k++ {
		s.put(k, []byte("dead"), -1) // born expired
	}
	for k := uint64(0); k < 60; k++ {
		s.Get(k)
	}
	s.Get(100)
	var buf []byte
	for k := uint64(30); k < 50; k++ {
		buf, _ = s.GetIntoH(h, k, buf)
	}
	s.MultiGet([]uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 100, 200})
	s.MultiGetH(h, []uint64{20, 21, 22, 23, 24, 25, 26, 27, 101})
	s.Delete(1)
	s.Delete(1)
	s.Delete(101)
	keys, vals := make([]uint64, 10), make([][]byte, 10)
	for i := range keys {
		keys[i], vals[i] = uint64(300+i), pattern(i)
	}
	s.MultiPut(keys, vals)
	s.MultiDelete([]uint64{2, 3, 102, 999})

	fired := 0
	installSeqReadHook(t, func(k uint64) { // one collision: a retry, then a validated read
		if fired++; fired == 1 {
			s.Put(k, pattern(2))
		}
	})
	s.Get(5)
	installSeqReadHook(t, func(k uint64) { s.Put(k, pattern(2)) }) // every attempt collides: a fallback
	s.GetH(h, 6)
	s.Get(998)
	s.MultiGet([]uint64{7, 8, 9, 10, 11, 12})
	seqReadHook.Store(nil)

	s.SetSeqReadAttempts(0)
	s.Get(8)
	s.Get(999)
	s.Get(103)
	s.MultiGetH(h, []uint64{9, 10, 11, 103, 997})
	s.SetSeqReadAttempts(DefaultSeqReadAttempts)

	if err := s.Txn([]uint64{12, 13, 400}, func(tx *Tx) error {
		tx.Put(12, pattern(1))
		tx.Delete(13)
		tx.Put(400, pattern(9))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	abort := errors.New("abort")
	if err := s.Txn([]uint64{14}, func(tx *Tx) error { return abort }); err != abort {
		t.Fatalf("aborted Txn returned %v", err)
	}
	if ok, err := s.CompareAndSwap(14, pattern(3), pattern(4)); !ok || err != nil {
		t.Fatalf("CompareAndSwap = %v, %v", ok, err)
	}
	s.MultiPut([]uint64{15, 500}, [][]byte{pattern(5), pattern(5)})
	s.SnapshotShard(0)
	s.Reap(0)
	s.Get(103) // reaped: a plain miss now

	got, err := json.Marshal(s.Stats())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != golden {
		t.Fatalf("Stats JSON differs from the pre-striping commit's for the same sequence:\n got %s\nwant %s", got, golden)
	}
}

// TestStatsTotalsExactUnderConcurrentReaders is the striped counters'
// arithmetic under load (run it with -race): N goroutines, half with a
// handle and half anonymous, each make M calls of every read entry point
// while a writer keeps updating the keys in place; once they stop, every
// total is exactly what the calls add up to, and every read section is
// accounted as either a seq read or a fallback.
func TestStatsTotalsExactUnderConcurrentReaders(t *testing.T) {
	const readers, calls, keys, batch = 8, 400, 64, 6
	s, err := NewSharded(4, mkBravo)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < keys; k++ {
		s.Put(k, EncodeValue(k))
	}
	var stop atomic.Bool
	var writer, wg sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := uint64(0); !stop.Load(); i++ {
			s.Put(i%keys, EncodeValue(i))
		}
	}()
	var groups atomic.Uint64 // MultiGet shard groups, i.e. batched read sections
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var h *rwl.Reader
			if r%2 == 0 {
				h = rwl.NewReader()
			}
			rng := xrand.NewXorShift64(uint64(r) + 1)
			var buf []byte
			mkeys := make([]uint64, batch)
			for i := 0; i < calls; i++ {
				buf, _ = s.GetIntoH(h, rng.Intn(keys), buf) // hit
				s.GetH(h, keys+rng.Intn(keys))              // miss
				if _, ok := s.Get(rng.Intn(keys)); !ok {    // hit, anonymous
					t.Error("resident key missed")
				}
				shards := map[int]bool{}
				for j := range mkeys {
					mkeys[j] = rng.Intn(2 * keys)
					shards[s.ShardOf(mkeys[j])] = true
				}
				groups.Add(uint64(len(shards)))
				s.MultiGetH(h, mkeys)
			}
		}(r)
	}
	wg.Wait()
	stop.Store(true)
	writer.Wait()
	st := s.Stats().Total()
	if want := uint64(readers * calls * 3); st.Gets != want || st.GetHits != want*2/3 {
		t.Errorf("gets/hits = %d/%d, want %d/%d", st.Gets, st.GetHits, want, want*2/3)
	}
	if want := uint64(readers * calls * batch); st.MultiGetKeys != want || st.MultiGetBatches != groups.Load() {
		t.Errorf("multi-get keys/batches = %d/%d, want %d/%d", st.MultiGetKeys, st.MultiGetBatches, want, groups.Load())
	}
	if st.SeqReads+st.SeqFallbacks != st.Gets+st.MultiGetBatches {
		t.Errorf("seq reads %d + fallbacks %d != read sections %d", st.SeqReads, st.SeqFallbacks, st.Gets+st.MultiGetBatches)
	}
	if st.SeqRetries < st.SeqFallbacks*DefaultSeqReadAttempts {
		t.Errorf("%d fallbacks but only %d retries: a fallback spends the whole budget", st.SeqFallbacks, st.SeqRetries)
	}
}
