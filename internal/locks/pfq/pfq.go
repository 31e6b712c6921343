// Package pfq implements the Brandenburg–Anderson Phase-Fair Queue-based
// reader-writer lock — PF-Q in [3], called "BA" throughout the BRAVO paper.
//
// Like PF-T, active readers are tallied on a central pair of counters whose
// low bits carry writer presence (PRES) and phase identity (PHID). Unlike
// PF-T, waiting is queue-based with local spinning: writers queue on an
// MCS-style list, and readers that arrive while a writer is present enqueue
// on a reader list and spin on a flag in their own node. The departing
// writer detaches the reader list and releases every node, admitting the
// entire blocked reader phase at once.
//
// Phase-fairness: reader phases and writer phases alternate under
// contention, so a reader waits for at most one writer and a writer waits
// for at most one reader phase.
//
// Footprint (paper §5): two 32-bit counter fields plus a handful of pointer
// words — compact, with the centralized reader indicator that makes this
// lock the natural BRAVO substrate.
package pfq

import (
	"sync"
	"sync/atomic"

	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/spin"
)

const (
	rinc  = 0x100 // reader increment (arrival count lives above the flag bits)
	wbits = 0x3   // writer presence/phase mask
	pres  = 0x2   // writer present
	phid  = 0x1   // writer phase ID
)

// rnode is a waiting reader's queue element. A reader publishes its node
// with a CAS on rtail and then spins only on its own released flag.
type rnode struct {
	next     *rnode // immutable after publication
	released atomic.Uint32
}

// wnode is an MCS writer queue element.
type wnode struct {
	next    atomic.Pointer[wnode]
	granted atomic.Uint32
}

var wnodePool = sync.Pool{New: func() any { return new(wnode) }}

// Lock is a PF-Q ("BA") phase-fair reader-writer lock. The zero value is
// unlocked.
type Lock struct {
	rin   atomic.Uint32         // reader arrivals ·256 | writer bits
	rout  atomic.Uint32         // reader departures ·256
	rtail atomic.Pointer[rnode] // waiting readers (LIFO list, drained per phase)
	wtail atomic.Pointer[wnode] // MCS writer queue tail
	whead *wnode                // owner's queue node; guarded by write ownership
	phase uint32                // writer phase ticket; guarded by write ownership
}

// RLock acquires read permission. Readers that must wait spin locally on
// their own queue node.
func (l *Lock) RLock() rwl.Token {
	w := l.rin.Add(rinc) & wbits
	if w == 0 {
		return 0
	}
	l.rwait(w)
	return 0
}

// rwait blocks the calling reader until the writer phase it arrived in —
// the one whose bits w it observed — ends.
func (l *Lock) rwait(w uint32) {
	n := &rnode{}
	for {
		old := l.rtail.Load()
		n.next = old
		if l.rtail.CompareAndSwap(old, n) {
			break
		}
	}
	// Recheck after publication. If the bits are still the ones we arrived
	// under, that writer's unlock (which clears the bits *before* detaching
	// the queue) is in our future, so a detach-and-release of our node is
	// guaranteed. Any other value — clear, or a successor's bits — means our
	// phase ended and we may have enqueued after its detach: admit ourselves.
	// Waiting on "no writer at all" instead deadlocks: the successor counted
	// our arrival and is draining us while we wait for its release.
	if l.rin.Load()&wbits != w {
		// Best-effort removal to keep the stale list short.
		l.rtail.CompareAndSwap(n, n.next)
		return
	}
	var b spin.Backoff
	for n.released.Load() == 0 {
		b.Once()
	}
}

// RUnlock releases read permission.
func (l *Lock) RUnlock(rwl.Token) {
	l.rout.Add(rinc)
}

// Lock acquires write permission via the MCS queue.
func (l *Lock) Lock() {
	n := wnodePool.Get().(*wnode)
	n.next.Store(nil)
	n.granted.Store(0)
	if prev := l.wtail.Swap(n); prev != nil {
		prev.next.Store(n)
		var b spin.Backoff
		for n.granted.Load() == 0 {
			b.Once()
		}
	}
	l.whead = n
	l.beginPhase()
}

// beginPhase announces writer presence and waits for in-flight readers.
// Caller must hold write ownership (be the queue head).
func (l *Lock) beginPhase() {
	t := l.phase
	l.phase = t + 1
	w := pres | (t & phid)
	arrivals := (l.rin.Add(w) - w) &^ wbits
	if l.rout.Load() != arrivals {
		var b spin.Backoff
		for l.rout.Load() != arrivals {
			b.Once()
		}
	}
}

// Unlock releases write permission: it ends the reader-exclusion phase,
// admits the blocked reader phase, and passes write ownership to the queued
// successor if any.
func (l *Lock) Unlock() {
	l.endPhase()
	n := l.whead
	l.whead = nil
	if n.next.Load() == nil {
		if l.wtail.CompareAndSwap(n, nil) {
			wnodePool.Put(n)
			return
		}
		var b spin.Backoff
		for n.next.Load() == nil {
			b.Once()
		}
	}
	n.next.Load().granted.Store(1)
	wnodePool.Put(n)
}

// endPhase clears the writer bits and releases every queued reader.
func (l *Lock) endPhase() {
	w := l.rin.Load() & wbits
	l.rin.Add(-w)
	// Detach strictly after clearing the bits: readers that observe the bits
	// set after enqueueing are guaranteed a future detach (see rwait).
	for r := l.rtail.Swap(nil); r != nil; r = r.next {
		r.released.Store(1)
	}
}

// WriterPresent reports whether a writer currently holds or is draining
// readers for the lock (the PRES bit is set). Diagnostic.
func (l *Lock) WriterPresent() bool {
	return l.rin.Load()&wbits != 0
}
