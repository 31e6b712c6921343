// Package stdrw adapts sync.RWMutex to the rwl interface.
//
// Go's standard reader-writer lock is itself a centralized-indicator design
// (a readerCount word updated by every reader), so it is a natural BRAVO
// substrate: "BRAVO-Go" is the repository's ablation showing the
// transformation composing with a lock the paper never measured.
package stdrw

import (
	"sync"

	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/spin"
)

// Lock wraps sync.RWMutex. The zero value is unlocked.
type Lock struct {
	mu sync.RWMutex
}

// RLock acquires read permission, spin-then-park: sync.RWMutex parks a
// reader the instant it meets a writer, and on the Go runtime a parked
// reader costs the writer a futex wake inside Unlock and itself a scheduling
// delay far longer than the write it waited for (see spin.BeforePark). So a
// reader that finds a writer first retries TryRLock for a bounded spin.
// TryRLock fails whenever a writer holds the lock or is queued for it, so
// spinners never overtake a waiting writer and admission order is that of
// sync.RWMutex.
func (l *Lock) RLock() rwl.Token {
	if !l.mu.TryRLock() && !spin.BeforePark(l.mu.TryRLock) {
		l.mu.RLock()
	}
	return 0
}

// RUnlock releases read permission.
func (l *Lock) RUnlock(rwl.Token) {
	l.mu.RUnlock()
}

// Lock acquires write permission.
func (l *Lock) Lock() { l.mu.Lock() }

// Unlock releases write permission.
func (l *Lock) Unlock() { l.mu.Unlock() }
