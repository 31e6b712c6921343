package bias

import (
	"github.com/bravolock/bravo/internal/self"
)

// ReaderSlots bounds the number of locks a reader handle can track at once:
// the per-lock slot cache and the number of simultaneous fast-path holds.
// Real call stacks rarely hold more than a few read locks (the kernel's
// mmap_sem dominates rwsem nesting); excess locks simply divert to the slow
// path, exactly like a table collision.
const ReaderSlots = 8

// Reader is a per-goroutine reader handle: a pinned identity plus a
// per-lock cache of the last fast-path slot. The paper's fast path is
// Hash(L, Self) + one CAS, and its §5.2 analysis attributes BRAVO's wins to
// readers re-hitting the same slot; a handle exploits that stability by
// paying the identity derivation and the hash once, so a steady-state read
// is a single CAS at the cached index.
//
// Each cache entry also remembers collisions (a diverted reader retries its
// home slot only after bias flips, see Engine.epoch) and records
// outstanding holds, which is what lets the release path detect unbalanced
// read-unlocks — the per-acquirer bookkeeping role the POSIX per-thread
// held-lock lists play in §3 and the kernel's per-task state plays in §4.
//
// A Reader is confined to one goroutine (or one request, handed along its
// processing chain); its methods and the handle-accepting lock paths that
// take it are not safe for concurrent use of the same Reader.
type Reader struct {
	id uint64
	// untracked counts slow-path acquisitions that could not be recorded
	// because every entry was pinned by an outstanding hold; releases drain
	// it before an unbalanced-unlock verdict.
	untracked uint32
	// hand is the round-robin eviction cursor.
	hand    uint32
	entries [ReaderSlots]readerEntry
}

// entry flags.
const (
	entFastHeld = 1 << iota // a fast-path acquisition at slot is outstanding
	entDiverted             // collided at epoch; slow-path until bias flips
)

// readerEntry caches one lock's fast-path state on a handle.
type readerEntry struct {
	eng   *Engine
	slot  uint32
	epoch uint32
	// gen is the slot generation captured by the outstanding fast-path
	// publication (meaningful while entFastHeld is set); the release hands
	// it to ClearOwned so an unbalanced unlock is caught at the table too.
	gen      uint32
	flags    uint8
	slowHeld uint8 // outstanding slow-path acquisitions (saturating)
}

// NewReader returns a handle with a fresh pinned identity.
func NewReader() *Reader {
	return &Reader{id: self.NextExplicitID()}
}

// NewReaderWithID returns a handle with an explicit identity, for callers
// that need the (lock, reader) → slot mapping to be reproducible
// (benchmark workers, collision tests).
func NewReaderWithID(id uint64) *Reader {
	r := MakeReader(id)
	return &r
}

// MakeReader returns a by-value handle for embedding (see rwsem.Task).
func MakeReader(id uint64) Reader {
	return Reader{id: id}
}

// ID returns the pinned reader identity.
func (r *Reader) ID() uint64 { return r.id }

// Held returns the number of outstanding fast-path holds across all locks.
func (r *Reader) Held() int {
	n := 0
	for i := range r.entries {
		if r.entries[i].eng != nil && r.entries[i].flags&entFastHeld != 0 {
			n++
		}
	}
	return n
}

// lookup returns the cache entry for e, or nil.
func (r *Reader) lookup(e *Engine) *readerEntry {
	for i := range r.entries {
		if r.entries[i].eng == e {
			return &r.entries[i]
		}
	}
	return nil
}

// alloc returns a fresh entry for e, evicting an unpinned entry if needed;
// nil when every entry has an outstanding hold. The new entry's slot is the
// home slot — the one hash this handle ever pays for e in the common case.
func (r *Reader) alloc(e *Engine) *readerEntry {
	var victim *readerEntry
	for i := range r.entries {
		if r.entries[i].eng == nil {
			victim = &r.entries[i]
			break
		}
	}
	if victim == nil {
		// Round-robin over evictable (hold-free) entries so one hot lock
		// cannot permanently starve the rest of the cache.
		for i := 0; i < ReaderSlots; i++ {
			c := &r.entries[r.hand%ReaderSlots]
			r.hand++
			if c.flags&entFastHeld == 0 && c.slowHeld == 0 {
				victim = c
				break
			}
		}
		if victim == nil {
			return nil
		}
	}
	*victim = readerEntry{eng: e, slot: e.table.Index(e.ID(), r.id)}
	return victim
}

// TryFastH attempts the complete fast-path read prefix for handle r: the
// RBias check, then publication at r's cached slot for this engine — the
// steady-state path is one CAS with no identity derivation and no hashing.
// Callers that failed must acquire read permission on the substrate and
// then call SlowLockedH followed by MaybeEnable.
func (e *Engine) TryFastH(r *Reader) (SlotToken, bool) {
	if !e.Enabled() {
		e.NoteDisabled()
		return 0, false
	}
	// Snapshot the bias generation before probing: a collision recorded
	// below must carry the epoch that was current when the slot was
	// observed occupied, not one bumped by a concurrent revoke+re-enable
	// mid-call (which would extend the diversion through the next epoch).
	epoch := e.epoch.Load()
	ent := r.lookup(e)
	if ent == nil {
		if ent = r.alloc(e); ent == nil {
			// Every entry is pinned by an outstanding hold: nowhere to
			// record this acquisition, so divert (like the kernel task with
			// its per-task record full).
			e.noteHandle()
			return 0, false
		}
	}
	if ent.flags&entFastHeld != 0 {
		// One fast hold per (handle, lock): a reentrant read acquisition
		// diverts to the slow path, keeping slot bookkeeping unambiguous.
		e.noteHandle()
		return 0, false
	}
	if e.randomized {
		// Randomized indices change per acquisition by design; take the
		// hashing path and track only the hold.
		tok, ok := e.TryPublish(r.id)
		if ok {
			ent.slot = tok.Index()
			ent.gen = tok.Gen()
			ent.flags |= entFastHeld
		}
		return tok, ok
	}
	if ent.flags&entDiverted != 0 {
		if ent.epoch == epoch {
			// Collision memory: the home slot was occupied earlier this
			// bias epoch; skip the doomed CAS until bias flips. This is a
			// deliberate trade — a diverted reader stays slow until the
			// next revoke/re-enable cycle even if the occupant has left —
			// buying a branch instead of a failing CAS per acquisition;
			// at the paper's table sizing collisions are rare enough that
			// the anonymous RLock path remains the fallback of choice for
			// locks that never see writers.
			e.noteCollision()
			return 0, false
		}
		ent.flags &^= entDiverted
		ent.slot = e.table.Index(e.ID(), r.id) // retry the home slot
	}
	if tok, ok, done := e.publishAt(ent.slot); done {
		if ok {
			ent.gen = tok.Gen()
			ent.flags |= entFastHeld
		}
		return tok, ok
	}
	// Cached slot occupied: fall back to the full probe sequence, skipping
	// the slot already tried. The cached slot may be a second-probe
	// alternate from an earlier rescue, so the true home slot must be
	// retried here — otherwise a handle would divert while the anonymous
	// path still succeeds. Hashing on this path is fine; only the steady
	// state needs to avoid it.
	home := e.table.Index(e.ID(), r.id)
	if home != ent.slot {
		if tok, ok, done := e.publishAt(home); done {
			if ok {
				ent.slot = home
				ent.gen = tok.Gen()
				ent.flags |= entFastHeld
			}
			return tok, ok
		}
	}
	if e.probe2 {
		if alt := e.table.Index2(e.ID(), r.id); alt != ent.slot && alt != home {
			if tok, ok, done := e.publishAt(alt); done {
				if ok {
					// The alternate becomes the cached slot; a steady
					// diverted-then-rescued reader keeps hitting it.
					ent.slot = alt
					ent.gen = tok.Gen()
					ent.flags |= entFastHeld
				}
				return tok, ok
			}
		}
	}
	e.noteCollision()
	ent.flags |= entDiverted
	ent.epoch = epoch
	return 0, false
}

// ReleaseFast releases r's outstanding fast-path hold on e, clearing the
// table slot. It reports false when r holds no fast acquisition of e, in
// which case the caller releases its slow-path acquisition instead (the
// rwsem shape, where no token travels with the acquisition).
func (e *Engine) ReleaseFast(r *Reader) bool {
	ent := r.lookup(e)
	if ent == nil || ent.flags&entFastHeld == 0 {
		return false
	}
	ent.flags &^= entFastHeld
	e.table.ClearOwned(ent.slot, ent.gen, e.ID())
	return true
}

// ReleaseFastAt releases the fast-path hold recorded on r for token t (the
// token-carrying shape, where the lock hands the token back at unlock). The
// handle's held-slot record is the first arbiter: releasing a token that is
// not held is a double unlock or an unlock-without-lock, and panics. The
// clearing CAS then compares the token's generation with the slot word, so a
// token forged or replayed against a different handle's hold is also caught.
func (e *Engine) ReleaseFastAt(r *Reader, t SlotToken) {
	ent := r.lookup(e)
	if ent == nil || ent.flags&entFastHeld == 0 || ent.slot != t.Index() {
		panic("bias: unbalanced fast-path RUnlock (double unlock or unlock without lock)")
	}
	ent.flags &^= entFastHeld
	e.table.ClearOwned(t.Index(), t.Gen(), e.ID())
}

// SlowLockedH records a slow-path read acquisition on the handle so the
// matching release can be checked. Call it after the substrate read lock is
// held, before MaybeEnable.
func (e *Engine) SlowLockedH(r *Reader) {
	ent := r.lookup(e)
	if ent == nil {
		ent = r.alloc(e)
	}
	if ent == nil || ent.slowHeld == ^uint8(0) {
		// Untrackable (handle pinned full, or pathological nesting depth):
		// remember only the count so releases stay panic-free.
		r.untracked++
		return
	}
	ent.slowHeld++
}

// SlowUnlockedH checks and consumes a slow-path hold recorded with
// SlowLockedH. An unlock with no matching hold — and no untracked
// acquisitions that could account for it — is unbalanced, and panics
// before the caller touches the substrate.
func (e *Engine) SlowUnlockedH(r *Reader) {
	ent := r.lookup(e)
	if ent != nil && ent.slowHeld > 0 {
		ent.slowHeld--
		return
	}
	if r.untracked > 0 {
		r.untracked--
		return
	}
	panic("bias: unbalanced slow-path RUnlock (double unlock or unlock without lock)")
}

// CachedSlot exposes r's cached slot and divert state for e (diagnostics
// and tests).
func (r *Reader) CachedSlot(e *Engine) (slot uint32, diverted, ok bool) {
	ent := r.lookup(e)
	if ent == nil {
		return 0, false, false
	}
	return ent.slot, ent.flags&entDiverted != 0, true
}
