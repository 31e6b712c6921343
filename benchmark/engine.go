package main

import (
	"fmt"
	"os"
	"time"

	"github.com/bravolock/bravo"
)

// engine-read and engine-write: the embedded engine, driven in process.
//
// engine-read is a volatile ShardedKV holding 2^18 keys (beyond L2), 95 %
// GetIntoH / 5 % Put: the production read path — the zero-CAS seq path and
// the store. The lock stack runs only under the 5 % writers.
//
// engine-write is the same stack used the other way: a durable engine
// (SyncNone), 2^16 keys, 45 % GetIntoH / 45 % Put / 5 % MultiPut(16) / 5 %
// CompareAndSwap, one Checkpoint at every round's half-way operation, then
// Close → reopen → verify. Writers bump seq so readers retry and fall back
// to the shard lock, and every write appends a framed WAL record.
type engineWL struct {
	write bool

	kv    *bravo.ShardedKV
	dir   string
	st0   bravo.ShardKVStats
	ckpts []float64 // checkpoint durations, ms
}

func (e *engineWL) plan() plan {
	if e.write {
		return plan{keys: 1 << 16, tapeLen: 1 << 18, passes: 1, sampleEvery: 16, mix: []mixEntry{
			{opGet, 45, 1}, {opPut, 45, 1}, {opMPut, 5, maxBatch}, {opCAS, 5, 1}}}
	}
	return plan{keys: 1 << 18, tapeLen: 1 << 20, passes: 1, sampleEvery: 16, mix: []mixEntry{
		{opGet, 95, 1}, {opPut, 5, 1}}}
}

// preload stores sequence 0 of every key and records the key count as the
// run's resident items.
func preload(rs *runState, put func(key uint64, v []byte)) {
	v := make([]byte, valueSize)
	for idx := 0; idx < rs.p.keys; idx++ {
		encodeValue(v, uint64(idx), 0)
		put(uint64(idx), v)
	}
	rs.items = rs.p.keys
}

func (e *engineWL) setup(rs *runState) (err error) {
	if e.write {
		if e.dir, err = rs.newDataDir(); err != nil {
			return err
		}
		e.kv, err = bravo.OpenShardedKV(e.dir, shards, mkLock(nil), bravo.SyncNone)
	} else {
		e.kv, err = bravo.NewShardedKV(shards, mkLock(nil))
	}
	if err != nil {
		return err
	}
	preload(rs, e.kv.Put)
	warm := rs.p.tapeLen / 4
	rs.parallel(func(w *worker) { walk(w, 0, warm, e.drive) })
	return nil
}

func (e *engineWL) get(w *worker, idx uint32) {
	op := w.tr.beginOp()
	want, exact := w.expect(idx)
	sp := w.tr.begin(spGetIntoH, op)
	v, ok := e.kv.GetIntoH(w.reader, uint64(idx), w.buf[:0])
	w.tr.end(sp)
	w.verify(idx, v, ok, want, exact)
	w.tr.end(op)
}

func (e *engineWL) put(w *worker, idx uint32) {
	op := w.tr.beginOp()
	w.nextValue(w.val, idx)
	sp := w.tr.begin(spPut, op)
	e.kv.Put(uint64(idx), w.val)
	w.tr.end(sp)
	w.done(1)
	w.tr.end(op)
}

func (e *engineWL) cas(w *worker, idx uint32) {
	op := w.tr.beginOp()
	encodeValue(w.vals[0], uint64(idx), w.seen[idx])
	w.nextValue(w.val, idx)
	sp := w.tr.begin(spCompareAndSwap, op)
	swapped, err := e.kv.CompareAndSwap(uint64(idx), w.vals[0], w.val)
	w.tr.end(sp)
	if err != nil || !swapped {
		w.failf("CompareAndSwap(%d) from the value last written: swapped=%v err=%v", idx, swapped, err)
	}
	w.done(1)
	w.tr.end(op)
}

func (e *engineWL) mput(w *worker, i int) {
	op := w.tr.beginOp()
	w.batch(i, maxBatch, true)
	w.stampBatch()
	sp := w.tr.begin(spMultiPut, op)
	e.kv.MultiPut(w.keys, w.vals)
	w.tr.end(sp)
	w.done(maxBatch)
	w.tr.end(op)
}

// drive consumes tape[lo:hi).
func (e *engineWL) drive(w *worker, lo, hi int) int {
	i := lo
	for i < hi {
		ent := w.tape[i]
		kind, idx := opKind(ent>>24), ent&tapeKeyMask
		timed := w.timed()
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		switch kind {
		case opGet:
			e.get(w, idx)
			if timed {
				w.rd.add(time.Since(t0))
			}
			i++
		case opPut:
			e.put(w, w.own(idx))
			if timed {
				w.wr.add(time.Since(t0))
			}
			i++
		case opCAS:
			e.cas(w, w.own(idx))
			i++
		case opMPut:
			e.mput(w, i)
			i += maxBatch
		default:
			panic(fmt.Sprintf("engine tape holds kind %d at %d", kind, i))
		}
	}
	return i
}

func (e *engineWL) round(rs *runState, r int) (time.Duration, bool) {
	if r == 0 {
		e.st0 = e.kv.Stats().Total()
	}
	n := rs.roundKeyOps()
	d := rs.parallel(func(w *worker) {
		pos := 0
		if e.write && w.id == 0 {
			pos = walk(w, 0, n/2, e.drive)
			sp := w.tr.begin(spCheckpoint, 0)
			t0 := time.Now()
			if err := e.kv.Checkpoint(); err != nil {
				w.failf("Checkpoint: %v", err)
			}
			e.ckpts = append(e.ckpts, float64(time.Since(t0))/1e6)
			w.tr.end(sp)
		}
		walk(w, pos, n, e.drive)
	})
	if rs.o.trace {
		t := e.kv.Stats().Total()
		rs.event("round-end", r, map[string]float64{
			"gets": float64(t.Gets), "puts": float64(t.Puts), "seq_reads": float64(t.SeqReads),
			"seq_retries": float64(t.SeqRetries), "seq_fallbacks": float64(t.SeqFallbacks),
			"wal_records": float64(t.WALRecords), "wal_bytes": float64(t.WALBytes), "checkpoints": float64(t.Checkpoints),
		})
	}
	return d, true
}

// engineExtras turns an engine's counter deltas over the measured rounds
// into the kvs.* ratios of the per-layer report.
func engineExtras(rs *runState, t0, t1 bravo.ShardKVStats) {
	gets := float64(t1.Gets - t0.Gets)
	x := rs.extra
	x["kvs.seq_read_frac"] = float64(t1.SeqReads-t0.SeqReads) / max(gets, 1)
	x["kvs.seq_retries_per_kread"] = 1e3 * float64(t1.SeqRetries-t0.SeqRetries) / max(gets, 1)
	x["kvs.seq_fallback_frac"] = float64(t1.SeqFallbacks-t0.SeqFallbacks) / max(gets, 1)
	if keys := float64(t1.WALKeys - t0.WALKeys); keys > 0 {
		x["kvs.wal_bytes_per_user_byte"] = float64(t1.WALBytes-t0.WALBytes) / (keys * (8 + valueSize))
		x["kvs.wal_keys_per_record"] = keys / float64(t1.WALRecords-t0.WALRecords)
	}
	x["kvs.wal_errors"] = float64(t1.WALErrors - t0.WALErrors)
}

func (e *engineWL) finish(rs *runState) error {
	engineExtras(rs, e.st0, e.kv.Stats().Total())
	if !e.write {
		rs.finalCheck(func(key uint64, buf []byte) ([]byte, bool) { return e.kv.GetInto(key, buf) })
		return nil
	}
	if err := e.kv.WALError(); err != nil {
		return fmt.Errorf("WAL: %w", err)
	}
	rs.extra["kvs.checkpoint_ms"] = median(e.ckpts)

	// Recovery: Close → OpenShardedKV → first verified read.
	t0 := time.Now()
	if err := e.kv.Close(); err != nil {
		return fmt.Errorf("Close: %w", err)
	}
	tClosed := time.Now()
	kv, err := bravo.OpenShardedKV(e.dir, shards, mkLock(nil), bravo.SyncNone)
	if err != nil {
		e.kv = nil
		return fmt.Errorf("reopen: %w", err)
	}
	e.kv = kv
	reopen := time.Since(tClosed)
	w := rs.workers[0]
	want, _ := w.expect(uint32(w.id))
	v, ok := kv.GetIntoH(w.reader, uint64(w.id), w.buf[:0])
	w.verify(uint32(w.id), v, ok, want, true)
	rs.extra["kvs.recovery_s"] = time.Since(t0).Seconds()
	rs.extra["kvs.reopen_ms"] = float64(reopen) / 1e6
	rs.extra["kvs.recover_keys_per_s"] = float64(rs.p.keys) / reopen.Seconds()
	rs.finalCheck(func(key uint64, buf []byte) ([]byte, bool) { return kv.GetInto(key, buf) })
	return nil
}

func (e *engineWL) teardown(*runState) {
	if e.kv != nil {
		e.kv.Close()
		e.kv = nil
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
		e.dir = ""
	}
	e.ckpts = nil
}
