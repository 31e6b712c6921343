package kvs

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/rwl"
)

// The read-path race storm: optimistic seqlock readers running flat out
// against every mutation site the engine has — Put, PutTTL, MultiPut,
// Delete, MultiDelete, Reap, checkpoints, and ApplyReplRecord — under the
// race detector. Values are self-validating (see stormValue): every 8-byte
// word carries the key, the word count, and a generation stamp, so a torn
// copy, a cross-key splice, or a stale half-update decodes as garbage
// instead of passing silently.
//
// Mutant exercise (run while building this storm and again whenever the
// bracketing changes, then deleted): a temporary test passes runSeqStorm an
// extra writer that takes the shard's write lock directly —
// sh.lock.Lock(); sh.putLocked(k, v, 0); sh.lock.Unlock() — a mutation with
// the lock held but WITHOUT the seq bump, i.e. a writer that "forgot"
// wlock/wunlock. With fixed-size four-word values (in-place rewrites give
// readers the widest torn-copy window) the storm's readers catch it:
// stormCheck reports mixed-generation words, because optimistic copies of
// the half-written cell validate against a counter the mutant never moved.
// On a 2-CPU host a mutant rewriting all 128 keys per iteration turns the
// storm red on every run (8/8) and one rewriting a single key per iteration
// on about one run in eight; the same writer through wlock/wunlock stays
// green. TestShardWriteLockOnlyThroughWlock rejects such a writer in
// non-test code before it runs. If you change the bracketing
// (kvShard.wlock/wunlock, seqStore mutators), rerun the exercise and make
// sure this storm goes red before trusting the change.

// stormKeys is the shared hot key space every storm goroutine hammers.
const stormKeys = 128

// stormValue builds a self-validating value for key: 1–4 words, each the
// identical stamp key<<48 | nwords<<40 | gen&0xffffffffff.
func stormValue(key, gen uint64) []byte {
	nw := 1 + int(gen%4)
	stamp := key<<48 | uint64(nw)<<40 | gen&0xffffffffff
	v := make([]byte, nw*8)
	for i := 0; i < nw; i++ {
		binary.LittleEndian.PutUint64(v[i*8:], stamp)
	}
	return v
}

// stormCheck verifies that v is exactly some value stormValue ever produced
// for key — never a splice of two writes or another key's payload.
func stormCheck(key uint64, v []byte) error {
	if len(v) == 0 || len(v)%8 != 0 {
		return fmt.Errorf("key %d: value length %d not a positive multiple of 8", key, len(v))
	}
	stamp := binary.LittleEndian.Uint64(v)
	if got := stamp >> 48; got != key {
		return fmt.Errorf("key %d: stamp carries key %d (cross-key splice)", key, got)
	}
	if nw := int(stamp >> 40 & 0xff); nw*8 != len(v) {
		return fmt.Errorf("key %d: stamp declares %d words, value has %d bytes (torn length)", key, nw, len(v))
	}
	for i := 8; i < len(v); i += 8 {
		if w := binary.LittleEndian.Uint64(v[i:]); w != stamp {
			return fmt.Errorf("key %d: word %d is %x, word 0 is %x (torn copy)", key, i/8, w, stamp)
		}
	}
	return nil
}

// stormReaders launches nReaders goroutines that hit the optimistic read
// path through every reader shape — Get, GetInto with a reused buffer,
// MultiGet, and their handle variants — validating every hit, until stop.
// Returns the WaitGroup the caller waits on after setting stop.
func stormReaders(t *testing.T, s *Sharded, nReaders int, stop *atomic.Bool) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for r := 0; r < nReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			h := rwl.NewReader()
			buf := make([]byte, 0, 64)
			batch := make([]uint64, 8)
			for i := uint64(r); !stop.Load(); i++ {
				// Yield every lap: on small GOMAXPROCS a flat-out reader loop
				// starves the writers the storm exists to collide with.
				runtime.Gosched()
				k := i % stormKeys
				var v []byte
				var ok bool
				switch i % 4 {
				case 0:
					v, ok = s.Get(k)
				case 1:
					v, ok = s.GetH(h, k)
				case 2:
					v, ok = s.GetInto(k, buf)
					buf = v[:0]
				case 3:
					for j := range batch {
						batch[j] = (k + uint64(j)) % stormKeys
					}
					var vals [][]byte
					if r%2 == 0 {
						vals = s.MultiGet(batch)
					} else {
						vals = s.MultiGetH(h, batch)
					}
					for j, bv := range vals {
						if bv == nil {
							continue
						}
						if err := stormCheck(batch[j], bv); err != nil {
							t.Error(err)
							stop.Store(true)
						}
					}
					continue
				}
				if !ok {
					continue // deleted/expired/not-yet-written: a miss is always legal
				}
				if err := stormCheck(k, v); err != nil {
					t.Error(err)
					stop.Store(true)
				}
			}
		}(r)
	}
	return &wg
}

// stormMutators runs the write-side mix for iters rounds: direct puts and
// TTL puts, batched puts, deletes single and batched, and the reaper. gen
// seeds the generation counter so engine variants never reuse stamps.
func stormMutators(t *testing.T, s *Sharded, iters int, gen *atomic.Uint64) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	spawn := func(fn func(i uint64)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				fn(uint64(i))
			}
		}()
	}
	spawn(func(i uint64) { // Put / PutTTL
		k := i % stormKeys
		if i%5 == 0 {
			s.PutTTL(k, stormValue(k, gen.Add(1)), time.Hour)
		} else {
			s.Put(k, stormValue(k, gen.Add(1)))
		}
	})
	spawn(func(i uint64) { // MultiPut, batches of 8
		keys := make([]uint64, 8)
		vals := make([][]byte, 8)
		for j := range keys {
			k := (i*3 + uint64(j)) % stormKeys
			keys[j] = k
			vals[j] = stormValue(k, gen.Add(1))
		}
		s.MultiPut(keys, vals)
	})
	spawn(func(i uint64) { // Delete / MultiDelete
		if i%3 == 0 {
			s.MultiDelete([]uint64{i % stormKeys, (i + 7) % stormKeys})
		} else {
			s.Delete((i * 5) % stormKeys)
		}
	})
	spawn(func(i uint64) { // born-expired entries + the reaper
		if i%4 == 0 {
			k := (i * 13) % stormKeys
			s.put(k, stormValue(k, gen.Add(1)), -1)
		}
		if i%8 == 0 {
			s.Reap(32)
		}
	})
	return &wg
}

// runSeqStorm drives readers against the full mutator mix on s, plus any
// engine-specific extra mutator, and asserts the optimistic path actually
// served traffic.
func runSeqStorm(t *testing.T, s *Sharded, iters int, gen *atomic.Uint64, extra func(i uint64)) {
	t.Helper()
	var stop atomic.Bool
	readers := stormReaders(t, s, 4, &stop)
	writers := stormMutators(t, s, iters, gen)
	if extra != nil {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < iters; i++ {
				extra(uint64(i))
			}
		}()
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	st := s.Stats().Total()
	if st.SeqReads == 0 {
		t.Fatal("storm never served an optimistic read; the path under test was idle")
	}
	t.Logf("storm: %d seq reads, %d retries, %d fallbacks", st.SeqReads, st.SeqRetries, st.SeqFallbacks)
}

// stormIters sizes the write side. Sized for the race detector on small
// machines: the point is collision coverage, not throughput, and the
// readers spin the whole time regardless.
func stormIters(t *testing.T) int {
	if testing.Short() {
		return 120
	}
	return 600
}

// TestSeqReadStormVolatile storms a BRAVO-locked volatile engine. Default
// (adaptive) bias policy: a write-heavy storm over AlwaysPolicy would spend
// the whole test in revocation scans instead of read/write collisions.
func TestSeqReadStormVolatile(t *testing.T) {
	s, err := NewSharded(8, mkBravo)
	if err != nil {
		t.Fatal(err)
	}
	var gen atomic.Uint64
	runSeqStorm(t, s, stormIters(t), &gen, nil)
}

// TestSeqReadStormDurable storms a durable engine while a checkpoint loop
// runs: WAL appends, group commit, and snapshot captures all inside the same
// seq brackets the readers validate against. Over four shards every
// checkpoint has both of its stages live — one shard's image being written
// by the file stage while the next is flushed, streamed from its cells and
// rotated — so under -race this is also the pipeline's certificate.
func TestSeqReadStormDurable(t *testing.T) {
	s := openTestKV(t, t.TempDir(), 4, SyncNone)
	defer s.Close()
	var gen atomic.Uint64
	iters := stormIters(t)
	var stop atomic.Bool
	var ckpt sync.WaitGroup
	ckpt.Add(1)
	go func() {
		defer ckpt.Done()
		for !stop.Load() {
			if err := s.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	runSeqStorm(t, s, iters, &gen, nil)
	stop.Store(true)
	ckpt.Wait()
	if n := s.Stats().Total().Checkpoints; n < 4 {
		t.Fatalf("%d shard checkpoints completed under the storm; the pipeline under test was idle", n)
	}
}

// TestSeqReadStormReplApply storms a volatile follower while replication
// records — including periodic whole-shard snapshot installs — land through
// ApplyReplRecord.
func TestSeqReadStormReplApply(t *testing.T) {
	s, _, _ := newBravoSharded(t, 4)
	var gen atomic.Uint64
	var lsn atomic.Uint64
	runSeqStorm(t, s, stormIters(t), &gen, func(i uint64) {
		k := (i * 17) % stormKeys
		sh := s.ShardOf(k)
		rec := ReplRecord{LSN: lsn.Add(1), Entries: []Entry{
			{Op: OpPut, Key: k, Value: stormValue(k, gen.Add(1))},
			{Op: OpDelete, Key: (k + 1) % stormKeys},
		}}
		if i%64 == 0 {
			// Snapshot install: wholesale replacement of the shard under one
			// bracket. Repopulate every key of this shard so readers keep
			// finding stamped values afterwards.
			rec.Snapshot = true
			rec.Entries = rec.Entries[:0]
			for key := uint64(0); key < stormKeys; key++ {
				if s.ShardOf(key) == sh {
					rec.Entries = append(rec.Entries,
						Entry{Op: OpPut, Key: key, Value: stormValue(key, gen.Add(1))})
				}
			}
		}
		// The delete entry above may name a key of another shard; route the
		// record by its first entry's shard, which is always k's.
		if err := s.ApplyReplRecord(sh, rec); err != nil {
			t.Error(err)
		}
	})
}
