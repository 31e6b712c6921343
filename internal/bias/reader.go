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

// Reader is a per-goroutine reader handle: a pinned identity, a per-lock
// cache of the home slot and a ledger of outstanding holds. The paper's fast
// path is Hash(L, Self) + one CAS, and its §5.2 analysis attributes BRAVO's
// wins to readers re-hitting the same slot; a handle exploits that stability
// by paying the identity derivation and the hash once, so a steady-state
// read is the engine's one probe sequence started at the cached index.
//
// The hold ledger is what lets the release path detect unbalanced
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
	// hand is the round-robin eviction cursor. last is the hint, the entry
	// lookup found last: an index, so a copied Reader (rwsem.Task embeds one
	// by value) never reaches the original's entries.
	hand, last uint8
	entries    [ReaderSlots]readerEntry
}

// entry flags.
const (
	entFastHeld = 1 << iota // a fast-path acquisition at home is outstanding
)

// readerEntry caches one lock's fast-path state on a handle.
type readerEntry struct {
	eng *Engine
	// home is the handle's home slot for eng, hashed once at alloc, and the
	// slot of any outstanding fast-path hold; want is its recheck mask
	// (sectorWant), computed at the same time.
	home uint32
	want uint32
	// gen is the slot generation captured by the outstanding fast-path
	// publication (meaningful while entFastHeld is set); ReleaseHeld compares
	// it with the slot word, catching what the ledger cannot (a copied handle).
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

// lookup returns the cache entry for e, or nil. It tries the hint before it
// scans, and points the hint at what the scan finds.
func (r *Reader) lookup(e *Engine) *readerEntry {
	if ent := &r.entries[r.last%ReaderSlots]; ent.eng == e {
		return ent
	}
	for i := range r.entries {
		if r.entries[i].eng == e {
			r.last = uint8(i)
			return &r.entries[i]
		}
	}
	return nil
}

// alloc returns a fresh entry for e, evicting an unpinned entry if needed;
// nil when every entry has an outstanding hold. The new entry caches the
// home slot — the one hash this handle ever pays for e.
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
	t := e.Table()
	home := t.Index(e.ID(), r.id)
	*victim = readerEntry{eng: e, home: home, want: sectorWant(t, home)}
	return victim
}

// enter is TryFastH's cold half: r's entry for e, found or allocated, or nil
// when the read must divert — every entry pinned by an outstanding hold
// (like the kernel task with its per-task record full), or a reentrant read:
// one fast hold per (handle, lock) keeps slot bookkeeping unambiguous.
func (r *Reader) enter(e *Engine) *readerEntry {
	ent := r.lookup(e)
	if ent == nil {
		ent = r.alloc(e)
	}
	if ent == nil || ent.flags&entFastHeld != 0 {
		e.noteHandle()
		return nil
	}
	return ent
}

// TryFastH attempts the complete fast-path read prefix for handle r: the
// RBias check, then the engine's probe sequence at r's cached home slot with
// its cached recheck mask — no identity derivation and no hashing in the
// steady state — and the hold recorded on r. A default engine whose probe
// publishes at the hinted entry makes no call. Callers that failed must
// acquire read permission on the substrate and then call SlowLockedH
// followed by MaybeEnable.
func (e *Engine) TryFastH(r *Reader) (SlotToken, bool) {
	if !e.Enabled() {
		e.noteDisabled()
		return 0, false
	}
	ent := &r.entries[r.last%ReaderSlots]
	if ent.eng != e || ent.flags&entFastHeld != 0 {
		if ent = r.enter(e); ent == nil {
			return 0, false
		}
	}
	t := e.conf().table
	gen, st := e.probe(t, ent.home, ent.want)
	tok, ok := makeSlotToken(ent.home, gen), true
	if st != published || e.cfg != nil {
		tok, ok = e.settle(t, ent.home, ent.want, gen, st)
	}
	if ok {
		ent.gen = gen
		ent.flags |= entFastHeld
	}
	return tok, ok
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
	e.Table().ReleaseHeld(ent.home, ent.gen, e.ID())
	return true
}

// ReleaseFastAt releases the fast-path hold recorded on r for token t (the
// token-carrying shape, where the lock hands the token back at unlock). The
// handle's held-slot record is the first arbiter: releasing a token that is
// not held is a double unlock or an unlock-without-lock, and panics. The slot
// is then this handle's own, so Table.ReleaseHeld compares the token's
// generation with the slot word (catching a forged token, or one a copy of
// the handle released) and empties it with a plain store.
func (e *Engine) ReleaseFastAt(r *Reader, t SlotToken) {
	ent := r.lookup(e)
	if ent == nil || ent.flags&entFastHeld == 0 || ent.home != t.Index() {
		panic("bias: unbalanced fast-path RUnlock (double unlock or unlock without lock)")
	}
	ent.flags &^= entFastHeld
	e.Table().ReleaseHeld(t.Index(), t.Gen(), e.ID())
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

// CachedSlot exposes r's cached home slot for e (diagnostics and tests).
func (r *Reader) CachedSlot(e *Engine) (home uint32, ok bool) {
	ent := r.lookup(e)
	if ent == nil {
		return 0, false
	}
	return ent.home, true
}
