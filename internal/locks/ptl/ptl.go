// Package ptl implements a pthread_rwlock-style reader-writer lock, modeled
// on the default Linux POSIX implementation as characterized by the paper
// (§5): a centralized reader indicator, *strong reader preference* that
// admits indefinite writer starvation, a compact footprint, and waiters that
// "block immediately in the kernel without spinning" — here, immediately on
// a condition variable.
package ptl

import (
	"sync"

	"github.com/bravolock/bravo/internal/rwl"
)

// Lock is a blocking, reader-preference reader-writer lock.
type Lock struct {
	mu      sync.Mutex
	rcond   sync.Cond
	wcond   sync.Cond
	readers int  // active readers
	writer  bool // writer active
	rwait   int  // readers blocked
	wwait   int  // writers blocked
}

// New returns an unlocked pthread-style lock.
func New() *Lock {
	l := &Lock{}
	l.rcond.L = &l.mu
	l.wcond.L = &l.mu
	return l
}

// RLock acquires read permission. Readers are admitted whenever no writer
// *holds* the lock; waiting writers are ignored (strong reader preference).
func (l *Lock) RLock() rwl.Token {
	l.mu.Lock()
	for l.writer {
		l.rwait++
		l.rcond.Wait()
		l.rwait--
	}
	l.readers++
	l.mu.Unlock()
	return 0
}

// RUnlock releases read permission.
func (l *Lock) RUnlock(rwl.Token) {
	l.mu.Lock()
	l.readers--
	if l.readers == 0 && !l.writer && l.wwait > 0 {
		l.wcond.Signal()
	}
	l.mu.Unlock()
}

// Lock acquires write permission, waiting for all readers to drain.
func (l *Lock) Lock() {
	l.mu.Lock()
	for l.writer || l.readers > 0 {
		l.wwait++
		l.wcond.Wait()
		l.wwait--
	}
	l.writer = true
	l.mu.Unlock()
}

// Unlock releases write permission. Blocked readers, if any, are preferred
// over blocked writers, which is what makes writer starvation possible.
func (l *Lock) Unlock() {
	l.mu.Lock()
	l.writer = false
	if l.rwait > 0 {
		l.rcond.Broadcast()
	} else if l.wwait > 0 {
		l.wcond.Signal()
	}
	l.mu.Unlock()
}

// WriterPresent reports whether a writer holds the lock or waits for it.
// Diagnostic only.
func (l *Lock) WriterPresent() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writer || l.wwait > 0
}
