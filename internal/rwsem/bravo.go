package rwsem

import (
	"github.com/bravolock/bravo/internal/bias"
)

// Bravo is the §4 integration of BRAVO with rwsem. It mirrors the kernel
// patch: the semaphore gains an RBias flag and an InhibitUntil timestamp;
// read acquisitions may divert to the shared visible readers table, with the
// slot determined by hashing the task's identity with the semaphore
// identity; releases clear that slot.
//
// The whole biasing protocol lives in the embedded bias.Engine — the same
// engine that powers the user-space wrapper (internal/core) — so the rwsem
// integration inherits the policy ablation, stats and 2D-table variants
// instead of carrying a private rbias/inhibit copy.
//
// The paper's patch assumes the semaphore is released by the task that
// acquired it for read, and we keep that assumption: the task's reader
// handle records fast-path holds (and caches the home slot, so a
// steady-state reader re-publishes without rehashing), resolving the rare
// hash-collision ambiguity that pure slot-content comparison would leave
// (two tasks whose (task, sem) pairs hash to the same slot).
type Bravo struct {
	inner *RWSem
	eng   bias.Engine
}

// NewBravo wraps a fresh rwsem with the BRAVO reader fast path. The visible
// readers table is shared process-wide (bias.SharedTable) unless overridden
// through Engine().SetTable.
func NewBravo(cfg Config) *Bravo {
	// The paper's kernel integration also fixes the owner-field writes
	// (§4); BRAVO-rwsem therefore defaults to the optimized owner protocol.
	cfg.StockOwnerWrites = false
	b := &Bravo{inner: New(cfg)}
	b.eng.Init()
	return b
}

// Engine exposes the embedded biasing engine: its Set* methods configure the
// semaphore before first use (a private or 2D table, a policy, stats), and
// the rest are diagnostics.
func (b *Bravo) Engine() *bias.Engine { return &b.eng }

// DownRead acquires read permission for t, preferring the table fast path
// through t's reader handle (cached home slot, no rehash in steady state).
func (b *Bravo) DownRead(t *Task) {
	if _, ok := b.eng.TryFastH(&t.r); ok {
		return
	}
	b.inner.DownRead(t)
	b.eng.SlowLockedH(&t.r)
	b.eng.MaybeEnable()
}

// UpRead releases read permission for t: fast-path acquisitions clear their
// recorded slot, slow-path acquisitions release the underlying semaphore.
// An unbalanced release detectable from the task's held-slot record panics.
func (b *Bravo) UpRead(t *Task) {
	if b.eng.ReleaseFast(&t.r) {
		return
	}
	b.eng.SlowUnlockedH(&t.r)
	b.inner.UpRead(t)
}

// DownWrite acquires write permission, revoking reader bias if set.
func (b *Bravo) DownWrite(t *Task) {
	b.inner.DownWrite(t)
	b.eng.RevokeIfEnabled()
}

// UpWrite releases write permission.
func (b *Bravo) UpWrite(t *Task) {
	b.inner.UpWrite(t)
}
