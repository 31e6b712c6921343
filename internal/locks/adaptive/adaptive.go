// Package adaptive composes the two ends of the bias spectrum into one
// lock that a bias.Adaptor flips at runtime: a BRAVO-transformed lock
// (reader-biased, writers pay revocation) and a FIFO fair gate
// (internal/locks/fairrw — no revocation, no starvation). The adaptor's
// Mode selects the reader path per acquisition and the token records it:
//
//	biased / neutral:  readers go through the inner lock (BRAVO fast path
//	                   when bias is on; plain substrate reads when the
//	                   adaptor holds bias off in neutral mode)
//	fair:              readers go through the fair gate in arrival order
//
// Writers ALWAYS acquire the fair gate and then the inner lock. That makes
// mutual exclusion independent of the racy mode load: every reader holds
// one of the two locks a writer must hold, so a reader that observed a
// stale mode is still excluded. The fair gate is uncontended in read-biased
// phases (two uncontended atomics per write — noise next to the revocation
// the writer is already paying), and in fair mode it provides the FIFO
// ordering. Lock ordering is fixed (gate, then inner) and readers take only
// one lock, so no cycle exists.
//
// The mode word also gates bias at the engine level (bias.Engine
// consults Adaptor.AllowBias in MaybeEnable), so after a demotion the next
// writer revokes bias once and it stays off until the adaptor promotes the
// shard again.
package adaptive

import (
	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/locks/fairrw"
	"github.com/bravolock/bravo/internal/rwl"
)

// fairBit tags tokens of reads admitted through the fair gate. The inner
// BRAVO wrapper uses bit 63 and substrates the low 32 bits (see rwl), so
// bit 62 is free.
const fairBit rwl.Token = 1 << 62

// Lock is an adaptively biased reader-writer lock. It must not be copied
// after first use.
type Lock struct {
	ad     *bias.Adaptor
	fair   fairrw.Lock
	under  rwl.RWLock
	hunder rwl.HandleRWLock // non-nil when under supports handle reads
}

var (
	_ rwl.TryRWLock    = (*Lock)(nil)
	_ rwl.HandleRWLock = (*Lock)(nil)
)

// New wraps under — typically a *core.Lock — with a fair gate and a fresh
// adaptor using default thresholds.
func New(under rwl.RWLock) *Lock {
	return NewWithThresholds(under, bias.DefaultThresholds())
}

// NewWithThresholds is New with an explicit hysteresis configuration.
// Configuration-time only: the inner lock's bias engine is pointed at the
// adaptor here, which must happen before the lock is shared.
func NewWithThresholds(under rwl.RWLock, th bias.Thresholds) *Lock {
	l := &Lock{ad: bias.NewAdaptor(th), under: under}
	l.hunder, _ = under.(rwl.HandleRWLock)
	if e, ok := under.(interface{ Engine() *bias.Engine }); ok {
		e.Engine().SetAdaptive(l.ad)
	}
	return l
}

// Adaptor returns the mode adaptor. Owners feed it their read/write counts
// (Adaptor.Offer) to drive the feedback loop; the KV engine detects this
// method structurally to wire per-shard adaptivity.
func (l *Lock) Adaptor() *bias.Adaptor { return l.ad }

// Under returns the inner lock.
func (l *Lock) Under() rwl.RWLock { return l.under }

// Engine returns the inner lock's bias engine, or nil when the inner lock
// has none.
func (l *Lock) Engine() *bias.Engine {
	if e, ok := l.under.(interface{ Engine() *bias.Engine }); ok {
		return e.Engine()
	}
	return nil
}

// RLock acquires read permission on the path the current mode selects.
func (l *Lock) RLock() rwl.Token {
	if l.ad.Mode() == bias.ModeFair {
		return fairBit | l.fair.RLock()
	}
	return l.under.RLock()
}

// RUnlock releases read permission on the path recorded in the token.
func (l *Lock) RUnlock(t rwl.Token) {
	if t&fairBit != 0 {
		l.fair.RUnlock(t &^ fairBit)
		return
	}
	l.under.RUnlock(t)
}

// RLockH is the handle read path. In fair mode the gate admits the reader
// anonymously (the handle's slot cache is BRAVO state and stays untouched);
// otherwise the inner lock's handle path runs, preserving the one-CAS
// steady state.
func (l *Lock) RLockH(h *rwl.Reader) rwl.Token {
	if l.ad.Mode() == bias.ModeFair {
		return fairBit | l.fair.RLock()
	}
	if l.hunder != nil {
		return l.hunder.RLockH(h)
	}
	return l.under.RLock()
}

// RUnlockH releases a read acquisition made with RLockH.
func (l *Lock) RUnlockH(h *rwl.Reader, t rwl.Token) {
	if t&fairBit != 0 {
		l.fair.RUnlock(t &^ fairBit)
		return
	}
	if l.hunder != nil {
		l.hunder.RUnlockH(h, t)
		return
	}
	l.under.RUnlock(t)
}

// Lock acquires write permission: the fair gate first, then the inner lock.
// Both are held for the duration, which is what makes reader exclusion
// mode-independent.
func (l *Lock) Lock() {
	l.fair.Lock()
	l.under.Lock()
}

// Unlock releases write permission in reverse order.
func (l *Lock) Unlock() {
	l.under.Unlock()
	l.fair.Unlock()
}

// TryRLock attempts a non-blocking read acquisition on the mode's path.
func (l *Lock) TryRLock() (rwl.Token, bool) {
	if l.ad.Mode() == bias.ModeFair {
		t, ok := l.fair.TryRLock()
		if !ok {
			return 0, false
		}
		return fairBit | t, true
	}
	tu, ok := l.under.(rwl.TryRWLock)
	if !ok {
		return 0, false
	}
	return tu.TryRLock()
}

// TryLock attempts a non-blocking write acquisition of both locks.
func (l *Lock) TryLock() bool {
	tu, ok := l.under.(rwl.TryRWLock)
	if !ok {
		return false
	}
	if !l.fair.TryLock() {
		return false
	}
	if !tu.TryLock() {
		l.fair.Unlock()
		return false
	}
	return true
}
