// Package core implements the BRAVO transformation (paper §3, Listing 1):
// a wrapper that augments any existing reader-writer lock with a biased
// reader fast path backed by a shared visible readers table.
//
// Readers make their presence known to writers by hashing their thread's
// identity with the lock address, forming an index into the visible readers
// table, and installing the lock address into that element with a CAS. All
// locks and threads in an address space can share one table; readers of the
// same lock tend to write to different locations in it, which is what
// removes the reader-indicator coherence hot spot of compact locks.
//
// The protocol itself — the RBias word, the publish/recheck/undo fast path,
// the revocation scan, the inhibit policies, the stats, and the slot-caching
// reader handles — lives in internal/bias and is shared with the rwsem
// integration (internal/rwsem); this package contributes the generic
// wrap-any-rwl-lock shape.
package core

import (
	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/self"
)

// fastBit tags tokens of fast-path read acquisitions; the slot index lives
// in the low 32 bits and the slot generation — the always-on
// unbalanced-unlock guard — in the bits above it (see bias.SlotToken).
// Substrate locks confine their tokens to the low 32 bits (see rwl), so the
// encodings cannot collide.
const fastBit rwl.Token = 1 << 63

// Lock is a BRAVO-transformed reader-writer lock: BRAVO-A where A is the
// underlying lock supplied to New. Per Listing 1, it extends A with an RBias
// flag and an InhibitUntil timestamp, which with the table fast path and the
// revocation scan live in the embedded bias.Engine shared with the rwsem
// integration: a default lock is one 48-byte allocation beside A. Reads have
// dual paths: a fast path that publishes the reader in the visible readers
// table without touching A, and the traditional slow path through A. Writers
// always pass through A, revoking reader bias when it is set.
//
// Read paths come in two flavors: the anonymous RLock/RUnlock pair, which
// derives the caller's identity and hashes per acquisition, and the
// handle-accepting RLockH/RUnlockH pair, whose steady state is one CAS at
// the handle's cached slot with no hashing at all (paper §5.2: BRAVO's wins
// come from readers re-hitting the same slot).
//
// BRAVO is transparent to A's admission policy: if A is reader-preference,
// writer-preference, phase-fair or neutral, BRAVO-A is too.
type Lock struct {
	// eng is the biasing protocol, first so that the words its fast path
	// reads share a cache line. Its address is the lock identity published
	// in table slots, so a Lock must not be copied.
	eng   bias.Engine
	under rwl.RWLock
}

var (
	_ rwl.RWLock       = (*Lock)(nil)
	_ rwl.HandleRWLock = (*Lock)(nil)
)

// Option configures a Lock.
type Option func(*Lock)

// WithTable directs the lock at a specific visible readers table — e.g. a
// private per-lock table (the idealized interference-immune variant of
// Figure 1) or a BRAVO-2D sectored table.
func WithTable(t *bias.Table) Option { return func(l *Lock) { l.eng.SetTable(t) } }

// WithPolicy installs a bias-enabling policy. Without one the lock runs the
// paper's inhibit rule at N = 9 (worst-case writer slow-down ≈ 1/(N+1));
// WithPolicy(bias.NewInhibitPolicy(n)) sets another N.
func WithPolicy(p bias.Policy) Option { return func(l *Lock) { l.eng.SetPolicy(p) } }

// WithStats attaches an event counter set. Counting adds shared-memory
// traffic; leave nil for performance runs.
func WithStats(s *bias.Stats) Option { return func(l *Lock) { l.eng.SetStats(s) } }

// New wraps an existing reader-writer lock with the BRAVO transformation.
func New(under rwl.RWLock, opts ...Option) *Lock {
	l := &Lock{under: under}
	for _, o := range opts {
		o(l)
	}
	l.eng.Init()
	return l
}

// Underlying returns the wrapped lock.
func (l *Lock) Underlying() rwl.RWLock { return l.under }

// Engine exposes the embedded biasing engine (diagnostics and tests).
func (l *Lock) Engine() *bias.Engine { return &l.eng }

// Adaptor returns the installed policy when it is an adaptive one, else nil.
// Owners feed it their read/write counts (Adaptor.Offer) to drive the
// feedback loop; the KV engine detects this method structurally to wire
// per-shard adaptivity.
func (l *Lock) Adaptor() *bias.Adaptor {
	a, _ := l.eng.PolicyInUse().(*bias.Adaptor)
	return a
}

// Biased reports whether reader bias is currently enabled.
func (l *Lock) Biased() bool { return l.eng.Enabled() }

// RLock acquires read permission (Listing 1, Reader). The returned token
// must be passed to RUnlock.
func (l *Lock) RLock() rwl.Token {
	return l.RLockWithID(self.ID())
}

// RLockWithID is RLock with an explicit thread identity; the collision tests
// use it to place two readers on one table slot deterministically.
func (l *Lock) RLockWithID(selfID uint64) rwl.Token {
	if tok, ok := l.eng.TryFast(selfID); ok {
		return fastBit | rwl.Token(tok)
	}
	// Slow path: acquire read permission on the underlying lock.
	ut := l.under.RLock()
	// Safety: bias may only be set while holding read permission on the
	// underlying lock, which excludes writers (Listing 1 lines 25–26).
	l.eng.MaybeEnable()
	return ut
}

// RUnlock releases read permission acquired by the RLock call that returned
// t: fast-path readers clear their slot, slow-path readers release the
// underlying lock (Listing 1 lines 29–33). The fast-path clear is one CAS
// that compares the lock's identity and the token's slot generation — a
// double RUnlock (even two racing ones: exactly one succeeds), an unlock
// without a lock, or a token handed to the wrong lock panics, in production
// builds and not just under lockcheck harnesses. Only a token replayed after
// its slot was emptied an exact multiple of 2^16 times escapes.
func (l *Lock) RUnlock(t rwl.Token) {
	if t&fastBit != 0 {
		l.eng.ClearFast(bias.SlotToken(t &^ fastBit))
		return
	}
	l.under.RUnlock(t)
}

// RLockH is RLock through a reader handle: the identity was pinned when the
// handle was created, and the steady state publishes into the handle's
// cached slot — one CAS, no hashing. The returned token must be passed to
// RUnlockH with the same handle.
func (l *Lock) RLockH(h *rwl.Reader) rwl.Token {
	if tok, ok := l.eng.TryFastH(h); ok {
		return fastBit | rwl.Token(tok)
	}
	ut := l.under.RLock()
	l.eng.SlowLockedH(h)
	l.eng.MaybeEnable()
	return ut
}

// RUnlockH releases a read acquisition made with RLockH. The handle's
// held-slot record is checked first, so an unbalanced release panics before
// touching lock state, and a fast release then needs no CAS (ReleaseHeld).
func (l *Lock) RUnlockH(h *rwl.Reader, t rwl.Token) {
	if t&fastBit != 0 {
		l.eng.ReleaseFastAt(h, bias.SlotToken(t&^fastBit))
		return
	}
	l.eng.SlowUnlockedH(h)
	l.under.RUnlock(t)
}

// Lock acquires write permission (Listing 1, Writer): pass through the
// underlying lock, then revoke reader bias if it is set.
func (l *Lock) Lock() {
	l.under.Lock()
	l.eng.RevokeIfEnabled()
}

// Unlock releases write permission.
func (l *Lock) Unlock() { l.under.Unlock() }
