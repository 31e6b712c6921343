package bias

import (
	"sync/atomic"
	"unsafe"

	"github.com/bravolock/bravo/internal/clock"
)

// Engine is the biasing protocol of Listing 1, extracted from any one lock:
// the RBias word, the table publish/recheck/undo fast-path prefix, the
// revocation scan with its policy feedback, and optional event counters.
// A lock implementation embeds an Engine by value, configures it before
// first use (Set* then Init), and drives it from its own acquisition paths:
//
//	read:    TryFast / TryFastH  →  on failure, substrate read lock, then MaybeEnable
//	unread:  ReleaseFastAt / ReleaseFast  →  otherwise substrate read unlock
//	write:   substrate write lock  →  RevokeIfEnabled
//
// The engine's own address is the lock identity published in table slots
// (slot values are compared, never dereferenced), so an Engine must not be
// copied after first use.
type Engine struct {
	// rbias is Listing 1's RBias flag in bit 0 (biasBit) and, above it, this
	// lock's occupancy summary: bit sectorBase+s is set when some fast
	// reader may be published in table sector s. Invariants:
	//
	//   - A summary bit is set only by a CAS from a word that has biasBit
	//     (markSector) and cleared only by the revoking Swap(0), so bias off
	//     ⇒ word == 0, and MaybeEnable's CAS(0, biasBit) is Listing 1's.
	//   - A fast read succeeds only if, after its slot publication, one
	//     atomic observation of the word showed biasBit and its sector's bit
	//     together (probe). Bits are cleared only by the Swap, so the
	//     first Swap after that observation returns the bit, and the
	//     revoking writer scans the sector the reader is published in: the
	//     BRAVO safety argument with the mask riding along.
	//   - The observation follows the publication, never precedes it. A
	//     reader that saw its bit and only then published could be overtaken
	//     by a revoke + re-enable that clears the bit in between (ABA on the
	//     word); checking afterwards, it finds the bit missing and re-marks.
	rbias atomic.Uint32
	// cfg is nil for the defaults. rbias and cfg, the fast path's only lock
	// state, fill the first 16 bytes: one cache line in a 16-aligned lock.
	cfg *engineCfg
	// until is Listing 1's InhibitUntil, used when no policy is set.
	until deadline
}

// engineCfg is an engine's configuration: table is never nil, a nil policy
// is the paper's inhibit rule at N = DefaultInhibitN, nil stats count nothing.
type engineCfg struct {
	table  *Table
	policy Policy
	stats  *Stats
}

// defaults configures every engine whose cfg is nil.
var defaults = engineCfg{table: shared}

// rbias word layout.
const (
	biasBit    = 1                   // reader bias is enabled
	sectorBase = 32 - summarySectors // bit sectorBase+s summarises table sector s
)

// ID returns the lock identity installed in table slots.
func (e *Engine) ID() uintptr { return uintptr(unsafe.Pointer(e)) }

// conf returns the engine's configuration block, or the defaults.
func (e *Engine) conf() *engineCfg {
	if c := e.cfg; c != nil {
		return c
	}
	return &defaults
}

// own returns the engine's own configuration block, allocating it on first use.
func (e *Engine) own() *engineCfg {
	if e.cfg == nil {
		e.cfg = &engineCfg{table: shared}
	}
	return e.cfg
}

// SetTable directs fast-path publication at a specific visible readers
// table. Configuration-time only.
func (e *Engine) SetTable(t *Table) {
	if t != nil {
		e.own().table = t
	}
}

// SetPolicy installs a bias-enabling policy in place of the inline inhibit
// rule (e.g. NewInhibitPolicy(n) for another N). Configuration-time only.
func (e *Engine) SetPolicy(p Policy) {
	if p != nil {
		e.own().policy = p
	}
}

// SetStats attaches an event counter set. Counting adds shared-memory
// traffic; leave unset for performance runs. Configuration-time only.
func (e *Engine) SetStats(s *Stats) {
	if s != nil || e.cfg != nil {
		e.own().stats = s
	}
}

// Init must be called once, after any Set* calls and before the engine is
// used. The defaults need no state, so it only checks the identity.
func (e *Engine) Init() { checkID(e.ID()) }

// checkID refuses, once and cold, an identity that would not fit above the
// generation in a slot word. Go heap, stack and data addresses are below 2^48
// on every supported 64-bit port except aix/ppc64; a 32-bit one always fits.
func checkID(id uintptr) {
	if uint64(id)>>(64-genBits) != 0 {
		panic("bias: lock address does not fit a table slot's identity bits")
	}
}

// Table returns the visible readers table this engine publishes into.
func (e *Engine) Table() *Table { return e.conf().table }

// PolicyInUse returns the installed bias-enabling policy, nil for the
// inline inhibit rule.
func (e *Engine) PolicyInUse() Policy { return e.conf().policy }

// ForceInhibitUntil overwrites the inline rule's deadline (a test hook).
func (e *Engine) ForceInhibitUntil(d int64) { e.until.Store(d) }

// Enabled reports whether reader bias is currently set.
func (e *Engine) Enabled() bool { return e.rbias.Load()&biasBit != 0 }

// noteDisabled records a slow read taken because bias was off.
func (e *Engine) noteDisabled() {
	if s := e.conf().stats; s != nil {
		s.SlowDisabled.Add(1)
	}
}

func (e *Engine) noteHandle() {
	if s := e.conf().stats; s != nil {
		s.SlowHandle.Add(1)
	}
}

// TryFast attempts the complete fast-path read prefix for an anonymous
// reader identified by selfID: the RBias check, then publication. It is the
// handle-free Listing 1 lines 10–23; callers that failed must acquire read
// permission on the substrate and then call MaybeEnable.
func (e *Engine) TryFast(selfID uint64) (SlotToken, bool) {
	if !e.Enabled() {
		e.noteDisabled()
		return 0, false
	}
	return e.TryPublish(selfID)
}

// TryPublish runs the publication half of the fast path (Listing 1 lines
// 11–23) for a reader identified by selfID: hash, then probe. The caller
// must have observed Enabled(). On success the returned token must be passed
// to ClearFast at read-unlock time.
func (e *Engine) TryPublish(selfID uint64) (SlotToken, bool) {
	t := e.Table()
	idx := t.Index(e.ID(), selfID)
	want := sectorWant(t, idx)
	gen, st := e.probe(t, idx, want)
	if st != published || e.cfg != nil {
		return e.settle(t, idx, want, gen, st)
	}
	return makeSlotToken(idx, gen), true
}

// probeState is how a probe left its slot.
type probeState uint8

const (
	published probeState = iota // the recheck saw bias and the sector bit
	collided                    // the slot was occupied: nothing published
	missed                      // published, but the recheck missed a bit
)

// sectorWant is the mask the recheck of a publication at slot idx of t must
// see in one observation of rbias: the bias bit and the slot's sector bit.
func sectorWant(t *Table, idx uint32) uint32 {
	return biasBit | 1<<(sectorBase+t.sector(idx))
}

// probe is the one publication sequence every fast read runs, anonymous or
// through a handle: CAS the identity into the home slot, then recheck rbias
// against want. An occupied slot costs one load (TryPublishAt CASes only an
// empty one), so a reader whose home is taken simply probes again on its next
// acquisition. It makes no call and inlines into both callers; every outcome
// but a default engine's published one goes on to settle.
func (e *Engine) probe(t *Table, idx, want uint32) (gen uint32, st probeState) {
	gen, ok := t.TryPublishAt(idx, e.ID())
	if !ok {
		return 0, collided
	}
	// Store-load fence required on TSO — subsumed by the CAS, and in Go by
	// the sequentially consistent atomics.
	if e.rbias.Load()&want != want {
		return gen, missed
	}
	return gen, published
}

// settle finishes a probe out of line: it counts the outcome when stats are
// on, marks a missing sector bit, and undoes a publication a writer
// overtook. markSector's own load decides a missed recheck, so bias clear
// there is the overtaking. The undo is an owned clear like any other,
// keeping the generation invariant.
func (e *Engine) settle(t *Table, idx, want, gen uint32, st probeState) (SlotToken, bool) {
	s := e.conf().stats
	switch {
	case st == collided:
		if s != nil {
			s.SlowCollision.Add(1)
		}
	case st == published || e.markSector(want):
		if s != nil {
			s.FastRead.Add(1)
		}
		return makeSlotToken(idx, gen), true
	default:
		t.ClearOwned(idx, gen, e.ID())
		if s != nil {
			s.SlowRaced.Add(1)
		}
	}
	return 0, false
}

// markSector sets a published reader's sector bit in the occupancy summary
// and reports whether bias was still set when it landed: the winning CAS is
// itself the reader's one observation of bias and bit together. Cold: taken
// by the first fast reader of a sector after each re-enable.
func (e *Engine) markSector(want uint32) bool {
	for {
		w := e.rbias.Load()
		if w&biasBit == 0 {
			return false
		}
		if w&want == want || e.rbias.CompareAndSwap(w, w|want) {
			return true
		}
	}
}

// ClearFast releases a fast-path read acquisition made with TryFast or
// TryPublish. The clearing CAS compares identity and the token's generation
// with the slot word (the always-on unbalanced-unlock guard): of any releases
// of one token, racing or sequential, all but one panic, as does an unlock of
// another lock's token, instead of silently corrupting the table.
func (e *Engine) ClearFast(t SlotToken) {
	e.Table().ClearOwned(t.Index(), t.Gen(), e.ID())
}

// MaybeEnable is called by a slow-path reader while it holds read
// permission on the substrate — the only state in which bias may be set
// (Listing 1 lines 25–26, which excludes writers) — and asks the policy
// (by default, the inline inhibit rule) whether to (re-)enable bias.
func (e *Engine) MaybeEnable() {
	if e.rbias.Load() == 0 && e.shouldEnable() {
		e.rbias.CompareAndSwap(0, biasBit)
	}
}

func (e *Engine) shouldEnable() bool {
	if p := e.conf().policy; p != nil {
		return p.ShouldEnable()
	}
	return e.until.lapsed()
}

// Revoke disables reader bias and waits for all fast-path readers of this
// engine to depart (Listing 1 lines 38–49). The caller must hold write
// permission on the substrate. One Swap disables bias and collects and
// clears the occupancy summary — a Load followed by Store(0) would drop a
// bit marked in between, and with it a reader — and the scan then visits
// only the sectors the summary names: none at all for a write that arrives
// after bias was re-enabled but before any fast reader published.
func (e *Engine) Revoke() {
	c := e.conf()
	w := e.rbias.Swap(0)
	// Store-load fence required on TSO — Go atomics are seq-cst.
	start := clock.Nanos()
	scanned, conflicts := c.table.waitEmptyIn(e.ID(), w>>sectorBase)
	now := clock.Nanos()
	// Primum non-nocere: limit and bound the slow-down arising from
	// revocation overheads.
	if c.policy != nil {
		c.policy.RevocationDone(start, now)
	} else {
		e.until.revoked(start, now, DefaultInhibitN)
	}
	if s := c.stats; s != nil {
		s.WriteRevoke.Add(1)
		s.RevokeNanos.Add(now - start)
		s.RevokeScanned.Add(uint64(scanned))
		s.RevokeWaits.Add(uint64(conflicts))
	}
}

// RevokeIfEnabled performs revocation when bias is set, recording a
// no-revocation write otherwise. It is the writer's post-acquisition step
// (Listing 1, Writer).
func (e *Engine) RevokeIfEnabled() bool {
	if e.Enabled() {
		e.Revoke()
		return true
	}
	if s := e.conf().stats; s != nil {
		s.WriteNormal.Add(1)
	}
	return false
}

// forceBias sets or clears the bias bit directly, bypassing policy and
// revocation. Test hook: used to reproduce the publish/recheck race windows
// deterministically. Clearing zeroes the whole word, as a revoking Swap
// does (without its scan); setting preserves the occupancy summary.
func (e *Engine) forceBias(enabled bool) {
	if !enabled {
		e.rbias.Store(0)
		return
	}
	for {
		w := e.rbias.Load()
		if e.rbias.CompareAndSwap(w, w|biasBit) {
			return
		}
	}
}
