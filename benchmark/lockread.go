package main

import (
	"fmt"
	"time"

	"github.com/bravolock/bravo"
)

// lock-read: the paper's headline figure, natively. One lock, W readers
// each with its own bravo.Reader, a critical section that reads one shared
// cache line, and a writer turn every lockWriteEvery-th acquisition per
// worker. Only internal/bias and internal/core do any work here.
type lockRead struct {
	bare bool // drive bare go-rw: the per-layer baseline, never the end-to-end run

	lk    bravo.RWLock
	fast  *bravo.Lock // lk's concrete type when !bare: the handle read path
	stats *bravo.Stats
	snap0 bravo.Snapshot
	// cell is the protected state: b == ^a whenever the lock is not
	// write-held, and a counts the writes.
	cell struct {
		_    [64]byte
		a, b uint64
		_    [48]byte
	}
	footprint []*bravo.Lock
}

const (
	lockBlock      = 4096  // acquisitions between progress publications
	lockWriteEvery = 16384 // every this-many-th acquisition per worker is Lock/Unlock
	// A single 30 ns RLockH is below what the clock resolves, so read
	// latency is sampled as a burst of lockBurst acquisitions at the head
	// of each block, reported per acquisition.
	lockBurst = 64
	// lockFootprint extra locks are built during set-up so that
	// mem_bytes_per_item is the heap cost of one lock (the paper's
	// footprint argument), not of one lock plus allocator slack.
	lockFootprint = 4096
)

func (l *lockRead) plan() plan {
	return plan{tapeLen: 1 << 23, passes: 2}
}

func (l *lockRead) setup(rs *runState) error {
	*l = lockRead{bare: l.bare}
	l.cell.b = ^l.cell.a
	rs.readDiv = lockBurst
	if l.bare {
		l.lk = bravo.NewGoRW()
	} else {
		var opts []bravo.Option
		if rs.o.trace || rs.o.stats {
			l.stats = new(bravo.Stats)
			opts = append(opts, bravo.WithStats(l.stats))
		}
		l.fast = bravo.New(bravo.NewGoRW(), opts...)
		l.lk = l.fast
		l.footprint = make([]*bravo.Lock, lockFootprint)
		for i := range l.footprint {
			l.footprint[i] = bravo.New(bravo.NewGoRW())
		}
		rs.items = lockFootprint + 1
	}
	warm := max(rs.p.tapeLen/4, lockBlock)
	rs.parallel(func(w *worker) { l.drive(w, warm) })
	return nil
}

func (l *lockRead) readFast(w *worker) {
	t := l.fast.RLockH(w.reader)
	a, b := l.cell.a, l.cell.b
	l.fast.RUnlockH(w.reader, t)
	if b != ^a {
		w.failf("read a=%d b=%#x under the read lock", a, b)
	}
}

func (l *lockRead) readBare(w *worker) {
	t := l.lk.RLock()
	a, b := l.cell.a, l.cell.b
	l.lk.RUnlock(t)
	if b != ^a {
		w.failf("read a=%d b=%#x under the read lock", a, b)
	}
}

func (l *lockRead) readTraced(w *worker) {
	op := w.tr.beginOp()
	sp := w.tr.begin(spRLockH, op)
	t := l.fast.RLockH(w.reader)
	w.tr.end(sp)
	a, b := l.cell.a, l.cell.b
	l.fast.RUnlockH(w.reader, t)
	if b != ^a {
		w.failf("read a=%d b=%#x under the read lock", a, b)
	}
	w.tr.end(op)
}

func (l *lockRead) write(w *worker) {
	op := w.tr.beginOp()
	t0 := time.Now()
	sp := w.tr.begin(spLock, op)
	l.lk.Lock()
	w.tr.end(sp)
	if l.cell.b != ^l.cell.a {
		w.failf("write lock admitted a=%d b=%#x", l.cell.a, l.cell.b)
	}
	l.cell.a++
	l.cell.b = ^l.cell.a
	l.lk.Unlock()
	if w.sampling {
		w.wr.add(time.Since(t0))
	}
	w.tr.end(op)
	w.seq++
}

// drive performs n acquisitions.
func (l *lockRead) drive(w *worker, n int) {
	read := l.readFast
	switch {
	case l.bare:
		read = l.readBare
	case w.tr != nil:
		read = l.readTraced
	}
	for base := 0; base < n; base += lockBlock {
		m := min(lockBlock, n-base)
		i := 0
		if w.sampling && m > lockBurst {
			t0 := time.Now()
			for ; i < lockBurst; i++ {
				read(w)
			}
			w.rd.add(time.Since(t0))
		}
		for ; i < m-1; i++ {
			read(w)
		}
		if (base+m)%lockWriteEvery == 0 {
			l.write(w)
		} else {
			read(w)
		}
		w.keyOps += uint64(m)
		w.issued.Store(w.keyOps)
	}
}

func (l *lockRead) round(rs *runState, r int) (time.Duration, bool) {
	if r == 0 && l.stats != nil {
		l.snap0 = l.stats.Snapshot()
	}
	n := rs.roundKeyOps()
	return rs.parallel(func(w *worker) { l.drive(w, n) }), true
}

func (l *lockRead) finish(rs *runState) error {
	var writes uint64
	for _, w := range rs.workers {
		writes += uint64(w.seq)
	}
	if l.cell.a != writes || l.cell.b != ^l.cell.a {
		return fmt.Errorf("final state a=%d b=%#x after %d writes", l.cell.a, l.cell.b, writes)
	}
	if l.stats != nil {
		var secs float64
		for _, rec := range rs.rounds {
			secs += rec.d.Seconds()
		}
		s1 := l.stats.Snapshot()
		reads := float64(s1.Reads() - l.snap0.Reads())
		wr := float64(s1.Writes() - l.snap0.Writes())
		rev := float64(s1.WriteRevoke - l.snap0.WriteRevoke)
		vals := map[string]float64{
			"bias.fast_frac":                float64(s1.FastRead-l.snap0.FastRead) / reads,
			"bias.revocations_per_s":        rev / secs,
			"bias.revoke_us_mean":           float64(s1.RevokeNanos-l.snap0.RevokeNanos) / max(rev, 1) / 1e3,
			"bias.revoke_scanned_per_write": float64(s1.RevokeScanned-l.snap0.RevokeScanned) / max(wr, 1),
		}
		for k, v := range vals {
			rs.extra[k] = v
		}
		rs.event("finish", len(rs.rounds), vals)
	}
	return nil
}

func (l *lockRead) teardown(*runState) { l.footprint = nil }
