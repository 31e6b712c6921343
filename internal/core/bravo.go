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
	"sync"

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
// flag and (inside the default policy) an InhibitUntil timestamp — both of
// which, together with the table fast path and the revocation scan, live in
// the embedded bias.Engine shared with the rwsem integration. Reads have
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
	// eng is the biasing protocol: rbias word, policy arbitration, table
	// publish/recheck/undo, revocation scan, stats. Its address is the lock
	// identity published in table slots, so a Lock must not be copied.
	eng   bias.Engine
	under rwl.RWLock
	// revMu, when non-nil, is the future-work variant (§7) that lets
	// arriving readers divert through the slow path while a writer is mid
	// revocation: writers serialize on revMu and revoke *before* acquiring
	// the underlying write lock.
	revMu *sync.Mutex
}

var (
	_ rwl.RWLock       = (*Lock)(nil)
	_ rwl.TryRWLock    = (*Lock)(nil)
	_ rwl.HandleRWLock = (*Lock)(nil)
)

// Option configures a Lock.
type Option func(*Lock)

// WithTable directs the lock at a specific visible readers table — e.g. a
// private per-lock table (the idealized interference-immune variant of
// Figure 1) or a BRAVO-2D sectored table.
func WithTable(t *bias.Table) Option { return func(l *Lock) { l.eng.SetTable(t) } }

// WithPolicy installs a bias-enabling policy. It composes with WithInhibitN
// in either order: the multiplier tunes the policy when it accepts one and
// never replaces it.
func WithPolicy(p bias.Policy) Option { return func(l *Lock) { l.eng.SetPolicy(p) } }

// WithStats attaches an event counter set. Counting adds shared-memory
// traffic; leave nil for performance runs.
func WithStats(s *bias.Stats) Option { return func(l *Lock) { l.eng.SetStats(s) } }

// WithInhibitN sets the paper's N multiplier (worst-case writer slow-down
// ≈ 1/(N+1)). It tunes the default InhibitPolicy — or one installed with
// WithPolicy, before or after — rather than replacing it, so option order
// does not matter.
func WithInhibitN(n int64) Option {
	return func(l *Lock) { l.eng.SetInhibitN(n) }
}

// WithSecondProbe enables a secondary table probe before a colliding reader
// falls back to the slow path.
func WithSecondProbe() Option { return func(l *Lock) { l.eng.SetSecondProbe() } }

// WithRandomizedIndex selects random rather than deterministic slot indices.
func WithRandomizedIndex() Option { return func(l *Lock) { l.eng.SetRandomizedIndex() } }

// WithRevocationMutex adds the per-lock writer mutex that allows readers to
// make progress (via the slow path) while a writer performs revocation,
// reducing read-latency variance (§7).
func WithRevocationMutex() Option {
	return func(l *Lock) { l.revMu = new(sync.Mutex) }
}

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

// TableInUse returns the visible readers table this lock publishes into.
func (l *Lock) TableInUse() *bias.Table { return l.eng.Table() }

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

// WriterPresent reports whether the underlying lock exposes a visible
// writer. Diagnostic; present only when the substrate provides it.
func (l *Lock) WriterPresent() bool {
	if wp, ok := l.under.(interface{ WriterPresent() bool }); ok {
		return wp.WriterPresent()
	}
	return false
}

// RLock acquires read permission (Listing 1, Reader). The returned token
// must be passed to RUnlock.
func (l *Lock) RLock() rwl.Token {
	return l.RLockWithID(self.ID())
}

// RLockWithID is RLock with an explicit thread identity, for callers that
// pin identities (benchmark workers, pooled executors).
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
// held-slot record is checked first, so an unbalanced release (double
// unlock, unlock without lock) panics before touching lock state.
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
	if l.revMu != nil {
		// Future-work variant: resolve write-write conflicts first and
		// revoke before taking the underlying lock, so arriving readers can
		// still enter via the slow path during the revocation scan.
		l.revMu.Lock()
		if l.eng.Enabled() {
			l.eng.Revoke()
		}
	}
	l.under.Lock()
	// In the default mode this is the Listing 1 revocation; in revMu mode
	// it catches the rare slow reader that re-enabled bias between our
	// pre-revocation and the write acquisition.
	l.eng.RevokeIfEnabled()
}

// Unlock releases write permission.
func (l *Lock) Unlock() {
	l.under.Unlock()
	if l.revMu != nil {
		l.revMu.Unlock()
	}
}

// TryRLock attempts the fast path and then, if the underlying lock supports
// try-acquisition, the slow path (§3's try-lock treatment). On underlying
// success the policy may enable bias, as the paper permits.
func (l *Lock) TryRLock() (rwl.Token, bool) {
	if l.eng.Enabled() {
		if tok, ok := l.eng.TryPublish(self.ID()); ok {
			return fastBit | rwl.Token(tok), true
		}
	}
	tu, ok := l.underTry()
	if !ok {
		return 0, false
	}
	l.eng.MaybeEnable()
	return tu, true
}

func (l *Lock) underTry() (rwl.Token, bool) {
	t, ok := l.under.(rwl.TryRWLock)
	if !ok {
		return 0, false
	}
	return t.TryRLock()
}

// TryLock attempts to acquire write permission. If the underlying try-lock
// succeeds and bias is set, revocation is performed exactly as in Lock.
func (l *Lock) TryLock() bool {
	if l.revMu != nil && !l.revMu.TryLock() {
		return false
	}
	t, ok := l.under.(rwl.TryRWLock)
	if !ok || !t.TryLock() {
		if l.revMu != nil {
			l.revMu.Unlock()
		}
		return false
	}
	l.eng.RevokeIfEnabled()
	return true
}
