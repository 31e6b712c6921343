// Package fairrw implements a ticket-style fair reader-writer lock after
// Popov & Mazonka, "Faster Fair Solution for the Reader-Writer Problem"
// (arXiv:1309.4507). One shared ticket sequence admits readers and writers
// in strict FIFO arrival order, so neither side can starve the other:
// a writer waits for exactly the readers ahead of it, and a reader waits
// for exactly the writers ahead of it. Adjacent readers in the ticket
// order still run concurrently.
//
// The algorithm keeps three monotonic counters:
//
//	next  — the ticket dispenser (one ticket per acquisition, either kind)
//	read  — read admission: the lowest ticket not yet admitted as a reader
//	write — departures: the lowest ticket not yet fully departed
//
// A reader with ticket t enters when read == t and immediately opens the
// door for ticket t+1 (read = t+1), so a run of readers admits itself in
// a pipelined chain; it departs with write++. A writer with ticket t
// enters when write == t — i.e. every earlier ticket has departed — and
// on exit admits ticket t+1 on both counters. All comparisons are
// equality on uint32, so counter wraparound is benign (same convention as
// the other ticket locks in this repository).
//
// This is the "fair" end of the bias spectrum: no revocation, no visible
// readers table, no reader preference. As a BRAVO substrate (the registry's
// "adaptive-fair") it is what the lock is whenever bias is off: a
// write-heavy shard whose adaptive policy withholds bias pays one
// cache-line handoff per acquisition instead of revocation storms.
// model_test.go checks the hand-off exhaustively at small scope.
package fairrw

import (
	"sync/atomic"

	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/spin"
)

// Lock is a FIFO-fair reader-writer lock. The zero value is unlocked.
type Lock struct {
	next  atomic.Uint32 // ticket dispenser
	read  atomic.Uint32 // read admission (lowest ticket not yet reader-admitted)
	write atomic.Uint32 // departures (lowest ticket not yet departed)
}

var _ rwl.TryRWLock = (*Lock)(nil)

// RLock acquires read permission in ticket order.
func (l *Lock) RLock() rwl.Token {
	t := l.next.Add(1) - 1
	var b spin.Backoff
	for l.read.Load() != t {
		b.Once()
	}
	// Only the owner of ticket t can observe read == t, so this store never
	// races with another mutation of read: it hands admission to ticket t+1.
	l.read.Store(t + 1)
	return 0
}

// RUnlock releases read permission.
func (l *Lock) RUnlock(rwl.Token) {
	l.write.Add(1)
}

// Lock acquires write permission in ticket order.
func (l *Lock) Lock() {
	t := l.next.Add(1) - 1
	var b spin.Backoff
	for l.write.Load() != t {
		b.Once()
	}
	// write == t means every earlier ticket has departed; read also equals t
	// (no later ticket can have been reader-admitted past an unentered t),
	// so the writer holds the lock exclusively. Neither counter moves while
	// it is held: admission of ticket t+1 requires the stores below.
}

// Unlock releases write permission and admits the next ticket.
func (l *Lock) Unlock() {
	t := l.write.Load() // == this writer's ticket; stable while held
	// Admit ticket t+1 as a reader before recording our own departure: a
	// successor writer (ticket t+1) enters via write, and only after it has
	// entered could further tickets mutate read — ordering the stores this
	// way keeps read from ever moving backwards.
	l.read.Store(t + 1)
	l.write.Add(1)
}

// TryRLock attempts to acquire read permission without waiting. It succeeds
// only when the caller would be admitted immediately, i.e. no writer is held
// or queued ahead.
func (l *Lock) TryRLock() (rwl.Token, bool) {
	t := l.next.Load()
	if l.read.Load() != t {
		return 0, false
	}
	if !l.next.CompareAndSwap(t, t+1) {
		return 0, false
	}
	// read can only have advanced to t by the owner of ticket t-1, and can
	// not pass t until ticket t (ours) advances it: entry is immediate.
	l.read.Store(t + 1)
	return 0, true
}

// TryLock attempts to acquire write permission without waiting. It succeeds
// only when the lock is completely idle (every prior ticket departed).
func (l *Lock) TryLock() bool {
	t := l.next.Load()
	if l.write.Load() != t {
		return false
	}
	return l.next.CompareAndSwap(t, t+1)
}

// Queued reports how many tickets are issued but not yet departed — held
// plus waiting acquisitions of either kind. Diagnostic only; racy by nature.
func (l *Lock) Queued() uint32 {
	return l.next.Load() - l.write.Load()
}
