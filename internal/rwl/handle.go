package rwl

import (
	"github.com/bravolock/bravo/internal/bias"
)

// Reader is a per-goroutine (or per-request) reader handle: a pinned
// identity plus a per-lock cache of its home table slot. Passing one through
// a HandleRWLock read path removes the identity derivation and the hash from
// the steady state — the acquisition is a single CAS at the cached index —
// and arms unbalanced-unlock detection via the handle's held-slot record.
//
// A Reader must not be used from two goroutines at once.
type Reader = bias.Reader

// NewReader returns a reader handle with a fresh pinned identity.
func NewReader() *Reader { return bias.NewReader() }

// NewReaderWithID returns a handle with an explicit identity, for callers
// that need reproducible (lock, reader) → slot mappings.
func NewReaderWithID(id uint64) *Reader { return bias.NewReaderWithID(id) }

// HandleRWLock is implemented by locks whose read path accepts a reader
// handle. Acquisitions made with RLockH must be released with RUnlockH by
// the same handle; the plain RLock/RUnlock pair remains available for
// callers without one.
type HandleRWLock interface {
	RWLock
	// RLockH acquires read permission for the handle's pinned identity,
	// using its cached slot when possible. The returned token must be
	// passed to RUnlockH along with the same handle.
	RLockH(h *Reader) Token
	// RUnlockH releases a read acquisition made by the RLockH call that
	// returned t. It panics on an unbalanced release (double unlock or
	// unlock without lock) detectable from the handle's held-slot record.
	RUnlockH(h *Reader, t Token)
}
