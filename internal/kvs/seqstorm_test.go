package kvs

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The read-path race storm: optimistic seqlock readers, harness drivers
// (harness_test.go) drawing the read family, running flat out against every
// mutation site the engine has (drivers drawing the write family,
// checkpoints, and ApplyReplRecord) under the race detector. Values are
// self-validating (see stormValue): every 8-byte word carries the key, the
// word count, and a generation stamp, so a torn copy, a cross-key splice, or
// a stale half-update decodes as garbage instead of passing silently.
//
// Mutant exercise (run while building this storm and again whenever the
// bracketing changes, then deleted). A temporary test passes runSeqStorm an
// extra writer that rewrites keys under sh.lock.Lock() with putLocked but
// WITHOUT the seq bump: a writer that "forgot" wlock/wunlock. With fixed-size
// four-word values (in-place rewrites give readers the widest torn-copy
// window) stormCheck reports mixed-generation words, for copies of the
// half-written cell validate against a counter the mutant never moved. On 2
// CPUs one rewriting all 128 keys per iteration turns the storm red on three
// runs in four (15 of 20; 11 of 20 before the read-window yield), one
// rewriting a single key on about one in eight; the same writer through
// wlock/wunlock stays green, and TestShardWriteLockOnlyThroughWlock rejects
// such a writer in non-test code. A second mutant drops the bump from every
// write section (kvShard.wlock/wunlock without WriteBegin/WriteEnd): no reader
// can then retry, which every storm asserts, and hotPair, which ends each
// storm, failed every storm on it in 90 of 90 runs on 2 CPUs, 30 of 30 at
// GOMAXPROCS=4 and 5 of 5 under -race. hotPair reads through each read site in
// turn, so two more mutants fail every storm (30 of 30 at -count=10, at
// GOMAXPROCS 2 and 4): the batch read section keeping its copy without
// validating it, and Range copying without the shard read lock (with GetInto
// as its only reader, 0 and 1 of 30). If you change the bracketing
// (kvShard.wlock/wunlock, seqStore mutators) or a read site, rerun the
// exercises and make sure this storm goes red before trusting the change.

// stormKeys is the shared hot key space every storm goroutine hammers.
const stormKeys = 128

// hotSeen (per read site) and hotReads end hotPair's reader; hotWindow is
// its reads between yields, hotBatch its batch read's size.
var hotSeen = [3]int{200, 100, 50}

const (
	hotReads  = 60000
	hotWindow = 64
	hotBatch  = 8
)

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

// runSeqStorm drives four harness drivers drawing the read family over the
// shared stormKeys — every hit checked by stormCheck — against four drawing
// the write family, plus any engine-specific extra mutator, and asserts the
// optimistic path served traffic and retried. Reads of every 16th key yield
// in the copy→validate window (seqReadHook, cleared on return; no test that
// counts seq reads runs beside a storm), so writers land there even on one
// CPU, and the other keys' reads seldom exhaust their attempts into the lock.
func runSeqStorm(t *testing.T, s *Sharded, iters int, extra func(i uint64)) {
	t.Helper()
	yield := func(k uint64) {
		if k%16 == 0 {
			runtime.Gosched()
		}
	}
	seqReadHook.Store(&yield)
	defer seqReadHook.Store(nil)
	var stop atomic.Bool
	var readers, writers sync.WaitGroup
	for i := uint64(0); i < 4; i++ {
		rd := newDriver(t, s, 0x5EAD+i, 0, stormKeys, false, readOps)
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				// Yield every lap: on small GOMAXPROCS a flat-out reader loop
				// starves the writers the storm exists to collide with.
				runtime.Gosched()
				rd.do(rd.next())
			}
		}()
		wd := newDriver(t, s, 0x5E0+i, 0, stormKeys, false, writeOps)
		writers.Add(1)
		go func() {
			defer writers.Done()
			wd.run(iters)
		}()
	}
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
	if st.SeqReads == 0 || st.SeqRetries == 0 {
		t.Errorf("storm served %d optimistic reads and retried none; the path under test never collided", st.SeqReads)
	}
	t.Logf("storm: %d seq reads, %d retries, %d fallbacks", st.SeqReads, st.SeqRetries, st.SeqFallbacks)
}

// hotPair closes a storm the way TestMemtableReadWhileWriting runs: one
// writer rewrites key 0 and its mate, a key of the same shard, in one write
// section with the same generation, while one reader, nothing else running,
// copies them back to back through each read site in turn, hotWindow reads
// at a time: GetInto (key 0), MultiGetIntoH (the batch read section, both
// keys hotBatch/2 times over) and Range (under the shard read lock). A
// rewrite can only land mid-copy while the two run at once, which the
// storm's goroutines, spread over stormKeys and sharing the CPUs, manage on
// too few runs. A batch or Range read spans both keys,
// so it must also see one generation: one write section or the other, never
// a part of each. The reader goes on until each site has seen its hotSeen
// changes between two of its reads with no yield between them, each change
// proof that the writer ran alongside, or until hotReads reads, which is
// where one CPU ends.
func hotPair(t *testing.T, s *Sharded) {
	mate := uint64(1)
	for s.ShardOf(mate) != s.ShardOf(0) {
		mate++
	}
	write := func(gen uint64) { s.MultiPut([]uint64{0, mate}, [][]byte{stormValue(0, gen), stormValue(mate, gen)}) }
	write(0) // both keys are there before the first read
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for gen := uint64(1); !done.Load(); gen++ {
			runtime.Gosched() // on one CPU, hand the reader back at once
			write(gen)
		}
	}()
	var buf []byte
	hot, batch := make([]uint64, hotBatch), make([][]byte, hotBatch)
	for i := range hot {
		hot[i] = mate * uint64(i%2)
	}
	sites := [...]struct {
		name string
		read func() [][]byte // the copies one read made, in hot's order
	}{
		{"GetInto", func() [][]byte {
			buf, _ = s.GetInto(0, buf[:0])
			return [][]byte{buf}
		}},
		{"MultiGetIntoH", func() [][]byte { return s.MultiGetIntoH(nil, hot, batch) }},
		{"Range", func() [][]byte {
			var vs [2][]byte
			s.Range(func(k uint64, v []byte) bool {
				if k == 0 || k == mate {
					vs[min(k, 1)] = append([]byte(nil), v...)
				}
				return vs[0] == nil || vs[1] == nil
			})
			return vs[:]
		}},
	}
	var prev [len(sites)]uint64 // each site's last first word; 0 after a yield
	var seen [len(sites)]int
reads:
	for i := 0; (seen[0] < hotSeen[0] || seen[1] < hotSeen[1] || seen[2] < hotSeen[2]) && i < hotReads; i++ {
		if i%hotWindow == 0 {
			runtime.Gosched()
			prev = [len(sites)]uint64{}
		}
		site := i / hotWindow % len(sites)
		if seen[site] >= hotSeen[site] {
			continue
		}
		vs := sites[site].read()
		for j, v := range vs {
			err := stormCheck(hot[j], v)
			if err == nil && binary.LittleEndian.Uint64(v)&(1<<40-1) != binary.LittleEndian.Uint64(vs[0])&(1<<40-1) {
				err = fmt.Errorf("copies %x and %x in one read section", vs[0], v)
			}
			if err != nil {
				t.Errorf("%s: %v", sites[site].name, err)
				break reads
			}
		}
		if w := binary.LittleEndian.Uint64(vs[0]); w != prev[site] {
			if prev[site] != 0 {
				seen[site]++
			}
			prev[site] = w
		}
	}
	done.Store(true)
	wg.Wait()
	t.Logf("hot pair: changes seen by GetInto, MultiGetIntoH, Range: %v", seen)
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
	runSeqStorm(t, s, stormIters(t), nil)
	hotPair(t, s)
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
	runSeqStorm(t, s, iters, nil)
	stop.Store(true)
	ckpt.Wait()
	hotPair(t, s)
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
	runSeqStorm(t, s, stormIters(t), func(i uint64) {
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
	hotPair(t, s)
}
