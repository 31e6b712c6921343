// Package pft implements the Brandenburg–Anderson Phase-Fair Ticket
// reader-writer lock (PF-T in [3], paper §2/§5).
//
// The reader indicator is "a central pair of counters, one incremented by
// arriving readers and the other incremented by departing readers"; the two
// low bits of the arrival counter encode writer presence (PRES) and the
// writer phase (PHID). Phase-fairness: readers that arrive while a writer is
// present are admitted as soon as exactly that writer departs, before any
// subsequent writer — so readers incur at most one writer's worth of delay
// and writers incur at most one reader phase.
//
// Invariant: PHID is flipped by every writer that announces itself and stays
// put when it departs, and only a writer that goes on to hold the lock ever
// announces — a TryLock that finds readers fails without touching the bits.
// A blocked reader waits for the bit pair it saw to change; the departing
// writer changes it (PRES clears), the next writer changes it again (PHID
// flips) and then cannot depart before that reader does, so the pair a
// reader waits on never comes back while it waits. Were PHID a ticket's
// parity, or did a failing TryLock announce and back out, two writer phases
// that never waited for a napping reader could restore the pair under it,
// and the third writer and that reader would wait for each other forever.
//
// Waiting readers spin globally on the arrival counter (the paper contrasts
// this with PF-Q's local spinning). Footprint: four 32-bit words.
package pft

import (
	"sync/atomic"

	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/spin"
)

const (
	rinc  = 0x100 // reader increment: arrival counts live above the flag bits
	wbits = 0x3   // writer presence/phase mask
	pres  = 0x2   // writer present
	phid  = 0x1   // writer phase ID: flipped by each announcing writer
)

// Lock is a PF-T phase-fair reader-writer lock. The zero value is unlocked.
//
// Counters wrap modulo 2^32; all comparisons are equality-based, so wrap is
// benign as long as fewer than 2^24 readers are simultaneously active.
type Lock struct {
	rin  atomic.Uint32 // reader arrivals ·256 | writer bits
	rout atomic.Uint32 // reader departures ·256
	win  atomic.Uint32 // writer tickets issued
	wout atomic.Uint32 // writer tickets served
}

var _ rwl.TryRWLock = (*Lock)(nil)

// RLock acquires read permission.
func (l *Lock) RLock() rwl.Token {
	// Reader increments never modify the writer bits, so the bits observed
	// in the post-add value are the bits that were current at arrival.
	w := l.rin.Add(rinc) & wbits
	if w&pres != 0 {
		// A writer is present: wait for its phase to end. The next writer
		// (if any) flips PHID, so the bits are guaranteed to change when the
		// blocking writer departs and we never miss our admission window.
		var b spin.Backoff
		for l.rin.Load()&wbits == w {
			b.Once()
		}
	}
	return 0
}

// RUnlock releases read permission.
func (l *Lock) RUnlock(rwl.Token) {
	l.rout.Add(rinc)
}

// Lock acquires write permission.
func (l *Lock) Lock() {
	// Writer-writer ordering via tickets.
	t := l.win.Add(1) - 1
	if l.wout.Load() != t {
		var b spin.Backoff
		for l.wout.Load() != t {
			b.Once()
		}
	}
	arrivals := l.announce()
	if l.rout.Load() != arrivals {
		var b spin.Backoff
		for l.rout.Load() != arrivals {
			b.Once()
		}
	}
}

// announce sets PRES and flips PHID on behalf of the writer whose ticket is
// being served — the only goroutine that may touch the writer bits, so the
// PHID it loads is stable — and returns the arrival count at the instant the
// bits changed: readers arriving later observe PRES and wait for this phase
// to end.
func (l *Lock) announce() uint32 {
	delta := uint32(pres|phid) - 2*(l.rin.Load()&phid)
	return (l.rin.Add(delta) - delta) &^ wbits
}

// Unlock releases write permission.
func (l *Lock) Unlock() {
	// Readers only add multiples of rinc, so subtracting PRES clears it
	// without borrowing into the count. PHID stays for the next writer to
	// flip.
	l.rin.Add(^uint32(pres - 1))
	l.wout.Add(1)
}

// WriterPresent reports whether a writer currently holds or is draining
// readers for the lock (the PRES bit is set). Diagnostic.
func (l *Lock) WriterPresent() bool {
	return l.rin.Load()&pres != 0
}

// TryRLock attempts to acquire read permission. If a writer is present it
// fails immediately. In the rare race where a writer announces itself between
// the presence check and the arrival increment, the arrival cannot be
// retracted (the writer's phase accounting already includes it), so the
// caller waits out that one phase — bounded, by phase-fairness — and then
// reports failure.
func (l *Lock) TryRLock() (rwl.Token, bool) {
	if l.rin.Load()&pres != 0 {
		return 0, false
	}
	w := l.rin.Add(rinc) & wbits
	if w&pres == 0 {
		return 0, true
	}
	// Raced with a writer: we are a registered arrival and must depart only
	// once admitted, otherwise the writer's rout equality check could be
	// satisfied while an earlier reader is still inside its critical section.
	var b spin.Backoff
	for l.rin.Load()&wbits == w {
		b.Once()
	}
	l.rout.Add(rinc)
	return 0, false
}

// TryLock attempts to acquire write permission without waiting. It takes the
// writer ticket and then announces itself only if no reader is active, in
// one CAS on the arrival word: rout equal to the loaded arrival count means
// every reader that had arrived has left, and the CAS succeeding means none
// arrived since. A TryLock that fails therefore never shows readers a writer
// phase (see the package invariant); it only retires its ticket.
func (l *Lock) TryLock() bool {
	o := l.wout.Load()
	if l.win.Load() != o || !l.win.CompareAndSwap(o, o+1) {
		return false
	}
	cur := l.rin.Load()
	if l.rout.Load() == cur&^wbits && l.rin.CompareAndSwap(cur, cur&^wbits|pres|(^cur&phid)) {
		return true
	}
	l.wout.Add(1)
	return false
}
