package core

import (
	"sync"

	"github.com/bravolock/bravo/internal/clock"
	"github.com/bravolock/bravo/internal/hash"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/self"
	"github.com/bravolock/bravo/internal/xrand"
)

// The paper's §7 future-work variants are compositions over Lock that call
// only paths the lock already has, so the production Lock carries none of
// their state and runs none of their branches. The registry selects them as
// bravo-ba-probe2, bravo-ba-random and bravo-ba-revmu.

// reidentified is a Lock whose reads choose, per acquisition, the reader
// identity they publish under. It has no handle paths: a handle's cached home
// slot would bypass the choice.
type reidentified struct {
	l  *Lock
	id func(l *Lock, selfID uint64) uint64
}

// NewSecondProbe returns a BRAVO lock whose reader, finding its home slot
// occupied, probes once more under an alternate identity before diverting
// (§7). Each read stays one Stats event, and on a 2D table the alternate
// keeps the lock's column, the one revocation scans.
func NewSecondProbe(under rwl.RWLock, opts ...Option) rwl.TryRWLock {
	return &reidentified{New(under, opts...), secondProbe}
}

// alternateSalt separates a reader's second-probe identity from its own.
const alternateSalt = 0x9e3779b97f4a7c15

func secondProbe(l *Lock, selfID uint64) uint64 {
	if t := l.eng.Table(); t.Load(t.Index(l.eng.ID(), selfID)) != 0 {
		return hash.Mix64(selfID ^ alternateSalt)
	}
	return selfID
}

// NewRandomIndex returns a BRAVO lock whose reads publish at a random slot
// (§7: "using time or random numbers to form indices").
func NewRandomIndex(under rwl.RWLock, opts ...Option) rwl.TryRWLock {
	return &reidentified{New(under, opts...), randomIndex}
}

func randomIndex(_ *Lock, selfID uint64) uint64 {
	return xrand.NewSplitMix64(uint64(clock.Nanos()) ^ selfID).Next()
}

func (v *reidentified) RLock() rwl.Token { return v.l.RLockWithID(v.id(v.l, self.ID())) }
func (v *reidentified) TryRLock() (rwl.Token, bool) {
	return v.l.tryRLockWithID(v.id(v.l, self.ID()))
}
func (v *reidentified) RUnlock(t rwl.Token) { v.l.RUnlock(t) }
func (v *reidentified) Lock()               { v.l.Lock() }
func (v *reidentified) Unlock()             { v.l.Unlock() }
func (v *reidentified) TryLock() bool       { return v.l.TryLock() }

// revocationMutex is a Lock whose writers serialize on a mutex of their own
// and revoke before taking the underlying write lock, so a reader arriving
// during the revocation scan still enters through the slow path (§7: lower
// read-latency variance).
type revocationMutex struct {
	l  *Lock
	mu sync.Mutex
}

// NewRevocationMutex returns a BRAVO lock with a revocation mutex (§7).
func NewRevocationMutex(under rwl.RWLock, opts ...Option) rwl.HandleRWLock {
	return &revocationMutex{l: New(under, opts...)}
}

func (r *revocationMutex) Lock() {
	r.mu.Lock()
	if r.l.eng.Enabled() {
		r.l.eng.Revoke()
	}
	r.l.Lock() // revokes again if a slow reader re-enabled bias in between
}

func (r *revocationMutex) Unlock() {
	r.l.Unlock()
	r.mu.Unlock()
}

func (r *revocationMutex) TryLock() bool {
	if !r.mu.TryLock() {
		return false
	}
	if !r.l.TryLock() {
		r.mu.Unlock()
		return false
	}
	return true
}

func (r *revocationMutex) RLock() rwl.Token                    { return r.l.RLock() }
func (r *revocationMutex) RUnlock(t rwl.Token)                 { r.l.RUnlock(t) }
func (r *revocationMutex) TryRLock() (rwl.Token, bool)         { return r.l.TryRLock() }
func (r *revocationMutex) RLockH(h *rwl.Reader) rwl.Token      { return r.l.RLockH(h) }
func (r *revocationMutex) RUnlockH(h *rwl.Reader, t rwl.Token) { r.l.RUnlockH(h, t) }
