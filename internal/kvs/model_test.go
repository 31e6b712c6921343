package kvs

// Model-based certification: the sharded engine must be observationally
// equivalent to a single-mutex map. A reference model applies the same
// randomized schedule of operations (Put, PutTTL at its two deterministic
// deadline classes, Delete, MultiPut, MultiDelete, Txn, CAS, Update, Get,
// MultiGet, Range, Reap) and the visible states must agree — after every
// read in the sequential phase, and on the final snapshot in the
// concurrent phase, where workers own disjoint key ranges so the final
// state is deterministic per schedule. Run under -race (CI does), the
// concurrent phase is also a data-race certification; the durable variant
// closes, reopens, and demands the recovered store still match the model.
//
// TTL determinism: wall-clock TTLs would make the model racy, so the
// schedules use put with exactly two classes — born expired
// (deadline -1, invisible immediately) and effectively-never (MaxInt64).

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"

	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/xrand"
)

// errModelAbort is the deliberate abort the transaction arm injects.
var errModelAbort = errors.New("model: deliberate transaction abort")

// refKV is the reference: one flat map of the visible state behind one
// mutex.
type refKV struct {
	mu   sync.Mutex
	data map[uint64][]byte
}

func newRefKV() *refKV { return &refKV{data: map[uint64][]byte{}} }

func (r *refKV) put(k uint64, v []byte) {
	r.mu.Lock()
	r.data[k] = append([]byte(nil), v...)
	r.mu.Unlock()
}

func (r *refKV) erase(k uint64) {
	r.mu.Lock()
	delete(r.data, k)
	r.mu.Unlock()
}

func (r *refKV) get(k uint64) ([]byte, bool) {
	r.mu.Lock()
	v, ok := r.data[k]
	r.mu.Unlock()
	return v, ok
}

// compareSnapshot fails the test unless the engine's visible state equals
// the reference's.
func compareSnapshot(t *testing.T, s *Sharded, want map[uint64][]byte, label string) {
	t.Helper()
	snap := s.Snapshot()
	if len(snap) != len(want) {
		t.Fatalf("%s: engine has %d visible keys, model has %d", label, len(snap), len(want))
	}
	for k, wv := range want {
		gv, ok := snap[k]
		if !ok {
			t.Fatalf("%s: model key %d missing from engine", label, k)
		}
		if !bytes.Equal(gv, wv) {
			t.Fatalf("%s: key %d = %x, model says %x", label, k, gv, wv)
		}
	}
}

// optimisticSweep re-reads every model key (plus a probe of absent ones)
// on the quiescent engine and demands exact agreement served entirely by
// the zero-CAS path: every read optimistic, zero retries, zero fallbacks.
// With writers quiescent the seq counters cannot move, so any disagreement
// here is a stale-after-quiescence read — a seq-bracketing bug, not a
// tolerable race — and any retry or fallback means the counter was left
// odd by an unbalanced write section.
func optimisticSweep(t *testing.T, s *Sharded, want map[uint64][]byte, label string) {
	t.Helper()
	before := s.Stats().Total()
	for k, wv := range want {
		gv, ok := s.Get(k)
		if !ok || !bytes.Equal(gv, wv) {
			t.Fatalf("%s: optimistic Get(%d) = %x/%v, model %x", label, k, gv, ok, wv)
		}
	}
	const probes = 64
	for i := uint64(0); i < probes; i++ {
		if _, ok := s.Get(^i); ok { // ^i: far outside every schedule's key space
			t.Fatalf("%s: optimistic Get(%d) hit a key no schedule ever wrote", label, ^i)
		}
	}
	after := s.Stats().Total()
	if n := uint64(len(want) + probes); after.SeqReads-before.SeqReads != n {
		t.Fatalf("%s: only %d of %d sweep reads were served optimistically",
			label, after.SeqReads-before.SeqReads, n)
	}
	if after.SeqRetries != before.SeqRetries || after.SeqFallbacks != before.SeqFallbacks {
		t.Fatalf("%s: quiescent sweep collided (retries +%d, fallbacks +%d): a write section left the counter odd",
			label, after.SeqRetries-before.SeqRetries, after.SeqFallbacks-before.SeqFallbacks)
	}
}

// runSequentialModel drives one goroutine's randomized schedule against
// both the engine and the reference, checking every read.
func runSequentialModel(t *testing.T, s *Sharded, seed uint64, iters int, h *rwl.Reader) *refKV {
	t.Helper()
	ref := newRefKV()
	rng := xrand.NewXorShift64(seed)
	const keyspace = 256
	batch := make([]uint64, 0, 8)
	bvals := make([][]byte, 0, 8)
	for i := 0; i < iters; i++ {
		// Adaptive arm: force a deterministic mid-schedule bias flip every
		// few hundred ops. The mode must be invisible to semantics — any
		// divergence from the reference blames the flip machinery. The rng
		// draw happens only on adaptive engines, so the other arms'
		// schedules are untouched.
		if i%400 == 200 && s.ShardAdaptor(0) != nil {
			m := bias.Mode(rng.Intn(2))
			for sh := 0; sh < s.NumShards(); sh++ {
				s.ShardAdaptor(sh).ForceMode(m)
			}
		}
		k := rng.Intn(keyspace)
		switch rng.Intn(23) {
		case 20: // multi-key transaction: staged writes commit or abort atomically
			n := 2 + int(rng.Intn(3))
			batch = batch[:0]
			bvals = bvals[:0]
			for j := 0; j < n; j++ {
				batch = append(batch, rng.Intn(keyspace))
				bvals = append(bvals, EncodeValue(rng.Next()))
			}
			abort := rng.Intn(4) == 0
			err := s.Txn(batch, func(tx *Tx) error {
				for j, bk := range batch {
					// Reads inside the body must see earlier staged writes.
					before, _ := tx.Get(bk)
					tx.Put(bk, bvals[j])
					if after, ok := tx.Get(bk); !ok || !bytes.Equal(after, bvals[j]) {
						t.Fatalf("op %d: staged write invisible to Tx.Get (had %x)", i, before)
					}
				}
				if abort {
					return errModelAbort
				}
				return nil
			})
			if abort != (err != nil) {
				t.Fatalf("op %d: Txn abort=%v returned err=%v", i, abort, err)
			}
			if !abort {
				for j, bk := range batch {
					ref.put(bk, bvals[j]) // duplicate keys: later position wins both sides
				}
			}
		case 21: // CompareAndSwap: the matching arm must swap, the poisoned one must not
			wv, wok := ref.get(k)
			var old []byte
			if wok {
				old = wv
			}
			nv := EncodeValue(rng.Next())
			if rng.Intn(4) == 0 {
				if swapped, err := s.CompareAndSwap(k, []byte("never-stored"), nv); err != nil || swapped {
					t.Fatalf("op %d: mismatched CAS(%d) swapped=%v err=%v", i, k, swapped, err)
				}
			} else {
				if swapped, err := s.CompareAndSwap(k, old, nv); err != nil || !swapped {
					t.Fatalf("op %d: matching CAS(%d) swapped=%v err=%v", i, k, swapped, err)
				}
				ref.put(k, nv)
			}
		case 22: // Update: read-modify-write with no interleaving writer
			nv := EncodeValue(rng.Next())
			wv, wok := ref.get(k)
			if err := s.Update(k, func(cur []byte, ok bool) ([]byte, bool) {
				if ok != wok || (ok && !bytes.Equal(cur, wv)) {
					t.Fatalf("op %d: Update(%d) observed %x/%v, model %x/%v", i, k, cur, ok, wv, wok)
				}
				return nv, true
			}); err != nil {
				t.Fatalf("op %d: Update(%d): %v", i, k, err)
			}
			ref.put(k, nv)
		case 0, 1, 2:
			v := EncodeValue(rng.Next())
			s.Put(k, v)
			ref.put(k, v)
		case 3: // TTL, never-expiring class
			v := EncodeValue(rng.Next())
			s.put(k, v, math.MaxInt64)
			ref.put(k, v)
		case 4: // TTL, born-expired class: immediately invisible
			s.put(k, EncodeValue(rng.Next()), -1)
			ref.erase(k)
		case 5, 6:
			s.Delete(k)
			ref.erase(k)
		case 7: // MultiPut, duplicates allowed: later position wins both sides
			n := 1 + int(rng.Intn(8))
			batch, bvals = batch[:0], bvals[:0]
			for j := 0; j < n; j++ {
				batch = append(batch, rng.Intn(keyspace))
				bvals = append(bvals, EncodeValue(rng.Next()))
			}
			s.MultiPut(batch, bvals)
			for j, bk := range batch {
				ref.put(bk, bvals[j])
			}
		case 8: // MultiDelete
			n := 1 + int(rng.Intn(8))
			batch = batch[:0]
			for j := 0; j < n; j++ {
				batch = append(batch, rng.Intn(keyspace))
			}
			s.MultiDelete(batch)
			for _, bk := range batch {
				ref.erase(bk)
			}
		case 11:
			s.Reap(64) // physical removal only: no visible-state change
		case 12: // full visible-state audit mid-stream
			seen := map[uint64][]byte{}
			s.Range(func(rk uint64, rv []byte) bool {
				seen[rk] = append([]byte(nil), rv...)
				return true
			})
			ref.mu.Lock()
			if len(seen) != len(ref.data) {
				t.Fatalf("op %d: Range saw %d keys, model has %d", i, len(seen), len(ref.data))
			}
			for rk, rv := range ref.data {
				if !bytes.Equal(seen[rk], rv) {
					t.Fatalf("op %d: Range key %d = %x, model %x", i, rk, seen[rk], rv)
				}
			}
			ref.mu.Unlock()
		case 13: // MultiGet vs model, absent keys included
			n := 1 + int(rng.Intn(8))
			batch = batch[:0]
			for j := 0; j < n; j++ {
				batch = append(batch, rng.Intn(2*keyspace))
			}
			got := s.MultiGet(batch)
			for j, bk := range batch {
				wv, wok := ref.get(bk)
				if wok != (got[j] != nil) || (wok && !bytes.Equal(got[j], wv)) {
					t.Fatalf("op %d: MultiGet[%d] key %d = %v, model %v/%v", i, j, bk, got[j], wv, wok)
				}
			}
		default: // Get (through the handle when the substrate supports it)
			var got []byte
			var ok bool
			if h != nil && rng.Intn(2) == 0 {
				got, ok = s.GetH(h, k)
			} else {
				got, ok = s.Get(k)
			}
			wv, wok := ref.get(k)
			if ok != wok || (ok && !bytes.Equal(got, wv)) {
				t.Fatalf("op %d: Get(%d) = %q/%v, model %q/%v", i, k, got, ok, wv, wok)
			}
		}
	}
	compareSnapshot(t, s, ref.data, "sequential final")
	return ref
}

func TestModelSequentialEquivalence(t *testing.T) {
	iters := 6000
	if testing.Short() {
		iters = 800
	}
	// lockOnly pins the control arm: the same schedule with the optimistic
	// path disabled, so a divergence blames the right read path.
	for _, tc := range []struct {
		name     string
		mk       rwl.Factory
		lockOnly bool
	}{
		{"go-rw", mkStd, false},
		{"bravo-ba", mkBravo, false},
		{"go-rw-lockonly", mkStd, true},
		// The adaptive arm runs the same schedule with deterministic forced
		// mode flips injected mid-schedule (see runSequentialModel).
		{"adaptive-ba", mkAdaptive, false},
		{"adaptive-ba-lockonly", mkAdaptive, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSharded(8, tc.mk)
			if err != nil {
				t.Fatal(err)
			}
			if tc.lockOnly {
				s.SetSeqReadAttempts(0)
			}
			ref := runSequentialModel(t, s, 0xB1A5ED, iters, rwl.NewReader())
			if tc.lockOnly {
				if n := s.Stats().Total().SeqReads; n != 0 {
					t.Fatalf("lock-only arm served %d optimistic reads", n)
				}
				return
			}
			if s.Stats().Total().SeqReads == 0 {
				t.Fatal("schedule never exercised the optimistic read path")
			}
			optimisticSweep(t, s, ref.data, "sequential sweep")
		})
	}
}

// TestModelSequentialEquivalenceDurable runs the same schedule on a
// durable engine, then closes, reopens, and demands the recovered store
// still equal the model — semantics and persistence certified together.
func TestModelSequentialEquivalenceDurable(t *testing.T) {
	iters := 4000
	if testing.Short() {
		iters = 600
	}
	dir := t.TempDir()
	s := openTestKV(t, dir, 8, SyncNone)
	ref := runSequentialModel(t, s, 0xD0_0D, iters, rwl.NewReader())
	optimisticSweep(t, s, ref.data, "durable pre-close sweep")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTestKV(t, dir, 8, SyncNone)
	defer r.Close()
	compareSnapshot(t, r, ref.data, "recovered")
	// Recovery rebuilds the seq index from the WAL before the engine is
	// shared; the reopened store must serve the model optimistically too.
	optimisticSweep(t, r, ref.data, "recovered sweep")
}

// runConcurrentModel storms the engine with workers that own disjoint key
// ranges (each also running reads and reaps) plus anonymous readers, then
// compares the deterministic final state. Returns the merged model.
func runConcurrentModel(t *testing.T, s *Sharded, workers, iters int) map[uint64][]byte {
	t.Helper()
	const keysPerWorker = 128
	models := make([]map[uint64][]byte, workers)
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(seed uint64) {
			defer readers.Done()
			h := rwl.NewReader()
			rng := xrand.NewXorShift64(seed)
			total := uint64(workers) * keysPerWorker
			batch := make([]uint64, 4)
			// Bounded, not free-running: on a single-CPU host an unbounded
			// read loop against spinning substrates starves the writers it
			// is supposed to race with.
			for i := 0; i < iters; i++ {
				select {
				case <-done:
					return
				default:
				}
				k := rng.Next() % total
				switch rng.Intn(8) {
				case 0:
					for j := range batch {
						batch[j] = rng.Next() % total
					}
					for _, v := range s.MultiGetH(h, batch) {
						if v != nil && len(v) != 8 {
							t.Errorf("reader: MultiGet returned %d bytes", len(v))
						}
					}
				case 1:
					s.Range(func(_ uint64, v []byte) bool {
						if len(v) != 8 {
							t.Errorf("reader: Range visited %d bytes", len(v))
						}
						return true
					})
				default:
					if v, ok := s.GetH(h, k); ok && len(v) != 8 {
						t.Errorf("reader: Get returned %d bytes", len(v))
					}
				}
			}
		}(uint64(1000 + r))
	}
	// Race-storm variant: on adaptive engines a flipper forces shard modes
	// while the seq readers above and the workers below run. Every reader
	// crosses flip boundaries mid-flight; the model comparison below is the
	// oracle that no flip tears a read or loses a write.
	var flipper sync.WaitGroup
	if s.ShardAdaptor(0) != nil {
		flipper.Add(1)
		go func() {
			defer flipper.Done()
			rng := xrand.NewXorShift64(0xF11B)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				sh := int(rng.Intn(uint64(s.NumShards())))
				s.ShardAdaptor(sh).ForceMode(bias.Mode(i % 2))
				runtime.Gosched()
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * keysPerWorker
			model := map[uint64][]byte{}
			rng := xrand.NewXorShift64(uint64(w)*0x9E3779B9 + 7)
			batch := make([]uint64, 0, 6)
			bvals := make([][]byte, 0, 6)
			for i := 0; i < iters; i++ {
				k := base + rng.Next()%keysPerWorker
				switch rng.Intn(19) {
				case 16: // multi-key transaction inside the worker's own range
					a := base + rng.Next()%keysPerWorker
					b := base + rng.Next()%keysPerWorker
					v1, v2 := EncodeValue(rng.Next()), EncodeValue(rng.Next())
					if err := s.Txn([]uint64{a, b}, func(tx *Tx) error {
						tx.Put(a, v1)
						tx.Put(b, v2)
						return nil
					}); err != nil {
						t.Errorf("worker %d: Txn: %v", w, err)
					}
					// Staged-last wins when a == b, same as the model order.
					model[a] = v1
					model[b] = v2
				case 17: // CAS against the worker's model: must always match
					wv, wok := model[k]
					var old []byte
					if wok {
						old = wv
					}
					nv := EncodeValue(rng.Next())
					if swapped, err := s.CompareAndSwap(k, old, nv); err != nil || !swapped {
						t.Errorf("worker %d: CAS(%d) swapped=%v err=%v", w, k, swapped, err)
					}
					model[k] = nv
				case 18: // Update within the worker's range
					nv := EncodeValue(rng.Next())
					if err := s.Update(k, func([]byte, bool) ([]byte, bool) {
						return nv, true
					}); err != nil {
						t.Errorf("worker %d: Update(%d): %v", w, k, err)
					}
					model[k] = nv
				case 0, 1, 2:
					v := EncodeValue(rng.Next())
					s.Put(k, v)
					model[k] = v
				case 3:
					v := EncodeValue(rng.Next())
					s.put(k, v, math.MaxInt64)
					model[k] = v
				case 4:
					s.put(k, EncodeValue(rng.Next()), -1)
					delete(model, k)
				case 5:
					s.Delete(k)
					delete(model, k)
				case 6: // MultiPut within the worker's own range
					n := 1 + int(rng.Intn(6))
					batch, bvals = batch[:0], bvals[:0]
					for j := 0; j < n; j++ {
						batch = append(batch, base+rng.Next()%keysPerWorker)
						bvals = append(bvals, EncodeValue(rng.Next()))
					}
					s.MultiPut(batch, bvals)
					for j, bk := range batch {
						model[bk] = bvals[j]
					}
				case 7:
					n := 1 + int(rng.Intn(6))
					batch = batch[:0]
					for j := 0; j < n; j++ {
						batch = append(batch, base+rng.Next()%keysPerWorker)
					}
					s.MultiDelete(batch)
					for _, bk := range batch {
						delete(model, bk)
					}
				case 11:
					s.Reap(32)
				default:
					// Every key is stable: only this worker writes it, and
					// its last write has applied.
					wv, wok := model[k]
					gv, gok := s.Get(k)
					if gok != wok || (gok && !bytes.Equal(gv, wv)) {
						t.Errorf("worker %d: Get(%d) = %q/%v, model %q/%v", w, k, gv, gok, wv, wok)
					}
				}
			}
			models[w] = model
		}(w)
	}
	wg.Wait()
	close(done)
	readers.Wait()
	flipper.Wait()
	merged := map[uint64][]byte{}
	for _, m := range models {
		for k, v := range m {
			merged[k] = v
		}
	}
	compareSnapshot(t, s, merged, "concurrent final")
	if s.Stats().Total().SeqReads == 0 {
		t.Error("concurrent schedule never exercised the optimistic read path")
	}
	optimisticSweep(t, s, merged, "concurrent sweep")
	return merged
}

func TestModelConcurrentEquivalence(t *testing.T) {
	iters := 3000
	if testing.Short() {
		iters = 400
	}
	for _, tc := range []struct {
		name string
		mk   rwl.Factory
	}{
		{"go-rw", mkStd},
		{"bravo-ba", mkBravo},
		// Adaptive race storm: a flipper forces shard modes under the full
		// concurrent schedule (see runConcurrentModel).
		{"adaptive-ba", mkAdaptive},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSharded(8, tc.mk)
			if err != nil {
				t.Fatal(err)
			}
			runConcurrentModel(t, s, 4, iters)
		})
	}
}

// TestModelConcurrentEquivalenceDurable is the concurrent storm over a
// live WAL, plus recovery: the reopened store must equal the model the
// concurrent schedule determined.
func TestModelConcurrentEquivalenceDurable(t *testing.T) {
	iters := 1500
	if testing.Short() {
		iters = 300
	}
	dir := t.TempDir()
	s := openTestKV(t, dir, 8, SyncNone)
	merged := runConcurrentModel(t, s, 4, iters)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTestKV(t, dir, 8, SyncNone)
	defer r.Close()
	compareSnapshot(t, r, merged, "recovered concurrent")
	optimisticSweep(t, r, merged, "recovered concurrent sweep")
}
