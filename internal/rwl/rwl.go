// Package rwl defines the reader-writer lock interfaces shared by every lock
// in this repository, and a constructor registry that lets benchmarks select
// lock implementations by name (playing the role of the paper's LD_PRELOAD
// interposition, §5).
//
// # Token-passing reads
//
// The paper notes (§3) that "the slot value must be passed from the read lock
// operator to the corresponding unlock", and that the Cohort lock passes the
// reader's NUMA node the same way. We make that explicit: RLock returns a
// Token that the caller hands back to RUnlock. Substrate locks use the low 32
// bits of the token (BRAVO reserves the upper bits to distinguish fast-path
// acquisitions), and locks with no per-acquisition state return Token(0).
package rwl

// Token carries per-acquisition reader state from RLock to RUnlock.
//
// Encoding convention: substrate locks (BA, Per-CPU, Cohort, pthread, rwsem)
// confine themselves to the low 32 bits; the BRAVO wrapper stores its
// fast-path slot index in the low 32 bits plus the slot's publication
// generation above it (the always-on unbalanced-unlock guard, see
// bias.SlotToken), tagged with bit 63.
type Token uint64

// RWLock is the common reader-writer lock interface.
//
// The admission policy (reader preference, writer preference, phase-fair,
// neutral) is a property of the implementation; BRAVO is transparent with
// respect to it (§3).
type RWLock interface {
	// RLock acquires read (shared) permission and returns the token that
	// must be passed to RUnlock.
	RLock() Token
	// RUnlock releases read permission acquired by the RLock call that
	// returned t.
	RUnlock(t Token)
	// Lock acquires write (exclusive) permission.
	Lock()
	// Unlock releases write permission.
	Unlock()
}
