package bias

import (
	"sync/atomic"
	"unsafe"

	"github.com/bravolock/bravo/internal/clock"
	"github.com/bravolock/bravo/internal/xrand"
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
	//     together (publishAt). Bits are cleared only by the Swap, so the
	//     first Swap after that observation returns the bit, and the
	//     revoking writer scans the sector the reader is published in: the
	//     BRAVO safety argument with the mask riding along.
	//   - The observation follows the publication, never precedes it. A
	//     reader that saw its bit and only then published could be overtaken
	//     by a revoke + re-enable that clears the bit in between (ABA on the
	//     word); checking afterwards, it finds the bit missing and re-marks.
	rbias atomic.Uint32
	// epoch counts bias enablements. Reader handles that diverted on a slot
	// collision remember the epoch and retry their home slot only after the
	// next flip, so a steadily-colliding reader costs one branch, not one
	// failing CAS, per acquisition.
	epoch  atomic.Uint32
	table  *Table
	policy Policy
	stats  *Stats
	// inhibitN, when set, tunes (not replaces) a policy that carries the
	// multiplier (InhibitPolicy, Adaptor); it is remembered so SetInhibitN
	// and SetPolicy compose in either order.
	inhibitN   int64
	probe2     bool
	randomized bool
}

// rbias word layout.
const (
	biasBit    = 1                   // reader bias is enabled
	sectorBase = 32 - summarySectors // bit sectorBase+s summarises table sector s
)

// ID returns the lock identity installed in table slots.
func (e *Engine) ID() uintptr { return uintptr(unsafe.Pointer(e)) }

// SetTable directs fast-path publication at a specific visible readers
// table. Configuration-time only.
func (e *Engine) SetTable(t *Table) {
	if t != nil {
		e.table = t
	}
}

// SetPolicy installs a bias-enabling policy. A previously requested
// inhibit multiplier is applied if the policy accepts one, so SetPolicy and
// SetInhibitN compose in either order. Configuration-time only.
func (e *Engine) SetPolicy(p Policy) {
	if p == nil {
		return
	}
	e.policy = p
	if t, ok := p.(inhibitTuner); ok && e.inhibitN > 0 {
		t.setInhibitN(e.inhibitN)
	}
}

// SetInhibitN tunes the paper's N multiplier (worst-case writer slow-down
// ≈ 1/(N+1)). It adjusts the installed policy when that policy carries the
// multiplier (an InhibitPolicy or an Adaptor), and is remembered for the
// default policy otherwise — it never replaces a policy installed with
// SetPolicy. The adjustment writes through the installed policy value, which
// is per-lock by the Policy contract: do not share one policy between locks
// and tune it on one of them. Configuration-time only.
func (e *Engine) SetInhibitN(n int64) {
	if n <= 0 {
		return
	}
	e.inhibitN = n
	if t, ok := e.policy.(inhibitTuner); ok {
		t.setInhibitN(n)
	}
}

// SetStats attaches an event counter set. Counting adds shared-memory
// traffic; leave unset for performance runs. Configuration-time only.
func (e *Engine) SetStats(s *Stats) { e.stats = s }

// SetSecondProbe enables a secondary table probe before a colliding reader
// falls back to the slow path (§7). Configuration-time only.
func (e *Engine) SetSecondProbe() { e.probe2 = true }

// SetRandomizedIndex selects non-deterministic slot indices (§7: "using
// time or random numbers to form indices"). Randomization defeats slot
// caching, so reader handles take the hashing path on such engines.
// Configuration-time only.
func (e *Engine) SetRandomizedIndex() { e.randomized = true }

// Init fills configuration defaults — the shared process-wide table and the
// paper's inhibit policy — and must be called once, after any Set* calls
// and before the engine is used.
func (e *Engine) Init() {
	checkID(e.ID())
	if e.table == nil {
		e.table = shared
	}
	if e.policy == nil {
		e.policy = NewInhibitPolicy(e.inhibitN)
	}
}

// checkID refuses, once and cold, an identity that would not fit above the
// generation in a slot word. Go heap, stack and data addresses are below 2^48
// on every supported 64-bit port except aix/ppc64; a 32-bit one always fits.
func checkID(id uintptr) {
	if uint64(id)>>(64-genBits) != 0 {
		panic("bias: lock address does not fit a table slot's identity bits")
	}
}

// Table returns the visible readers table this engine publishes into.
func (e *Engine) Table() *Table { return e.table }

// PolicyInUse returns the installed bias-enabling policy.
func (e *Engine) PolicyInUse() Policy { return e.policy }

// StatsInUse returns the attached counters, or nil.
func (e *Engine) StatsInUse() *Stats { return e.stats }

// SecondProbe reports whether the secondary probe is enabled.
func (e *Engine) SecondProbe() bool { return e.probe2 }

// Randomized reports whether slot indices are randomized.
func (e *Engine) Randomized() bool { return e.randomized }

// Enabled reports whether reader bias is currently set.
func (e *Engine) Enabled() bool { return e.rbias.Load()&biasBit != 0 }

// Epoch returns the bias-enable generation counter.
func (e *Engine) Epoch() uint32 { return e.epoch.Load() }

// NoteDisabled records a slow read taken because bias was off.
func (e *Engine) NoteDisabled() {
	if e.stats != nil {
		e.stats.SlowDisabled.Add(1)
	}
}

func (e *Engine) noteFast() {
	if e.stats != nil {
		e.stats.FastRead.Add(1)
	}
}

func (e *Engine) noteRaced() {
	if e.stats != nil {
		e.stats.SlowRaced.Add(1)
	}
}

func (e *Engine) noteCollision() {
	if e.stats != nil {
		e.stats.SlowCollision.Add(1)
	}
}

func (e *Engine) noteHandle() {
	if e.stats != nil {
		e.stats.SlowHandle.Add(1)
	}
}

// TryFast attempts the complete fast-path read prefix for an anonymous
// reader identified by selfID: the RBias check, then publication. It is the
// handle-free Listing 1 lines 10–23; callers that failed must acquire read
// permission on the substrate and then call MaybeEnable.
func (e *Engine) TryFast(selfID uint64) (SlotToken, bool) {
	if !e.Enabled() {
		e.NoteDisabled()
		return 0, false
	}
	return e.TryPublish(selfID)
}

// TryPublish runs the publication half of the fast path (Listing 1 lines
// 11–23) for a reader identified by selfID: hash, CAS, optional second
// probe, RBias recheck, undo on race. The caller must have observed
// Enabled(). On success the returned token must be passed to ClearFast at
// read-unlock time.
func (e *Engine) TryPublish(selfID uint64) (SlotToken, bool) {
	id := e.ID()
	if e.randomized {
		selfID = xrand.NewSplitMix64(uint64(clock.Nanos()) ^ selfID).Next()
	}
	if tok, ok, done := e.publishAt(e.table.Index(id, selfID)); done {
		return tok, ok
	}
	if e.probe2 {
		if tok, ok, done := e.publishAt(e.table.Index2(id, selfID)); done {
			return tok, ok
		}
	}
	e.noteCollision()
	return 0, false
}

// publishAt CASes the engine identity into slot idx and rechecks RBias.
// done is false only when the slot was occupied (the caller may probe
// elsewhere); on a recheck race the publication is undone and the read is
// committed to the slow path (done true, ok false).
func (e *Engine) publishAt(idx uint32) (_ SlotToken, ok, done bool) {
	gen, won := e.table.TryPublishAt(idx, e.ID())
	if !won {
		return 0, false, false
	}
	// Store-load fence required on TSO — subsumed by the CAS, and in Go by
	// the sequentially consistent atomics.
	//
	// The recheck (Listing 1 line 16) must show bias and this slot's sector
	// bit in the same observation; every path — anonymous, handle, second
	// probe, rwsem — publishes through here, so all share the summary.
	want := uint32(biasBit | 1<<(sectorBase+e.table.sector(idx)))
	if w := e.rbias.Load(); w&want == want || (w&biasBit != 0 && e.markSector(want)) {
		e.noteFast()
		return makeSlotToken(idx, gen), true, true
	}
	// Raced: a writer revoked bias after our publication; undo. The undo is
	// an owned clear like any other, keeping the generation invariant.
	e.table.ClearOwned(idx, gen, e.ID())
	e.noteRaced()
	return 0, false, true
}

// markSector sets a published reader's sector bit in the occupancy summary
// and reports whether bias was still set when it landed: the winning CAS is
// itself the reader's one observation of bias and bit together. Cold — taken
// by the first fast reader of a sector after each re-enable — and kept out
// of line so publishAt stays a load and a compare.
//
//go:noinline
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
	e.table.ClearOwned(t.Index(), t.Gen(), e.ID())
}

// MaybeEnable is called by a slow-path reader while it holds read
// permission on the substrate — the only state in which bias may be set
// (Listing 1 lines 25–26, which excludes writers) — and asks the policy
// whether to (re-)enable bias.
func (e *Engine) MaybeEnable() {
	if e.rbias.Load() == 0 && e.policy.ShouldEnable() {
		if e.rbias.CompareAndSwap(0, biasBit) {
			e.epoch.Add(1)
		}
	}
}

// Revoke disables reader bias and waits for all fast-path readers of this
// engine to depart (Listing 1 lines 38–49). The caller must hold write
// permission on the substrate. One Swap disables bias and collects and
// clears the occupancy summary — a Load followed by Store(0) would drop a
// bit marked in between, and with it a reader — and the scan then visits
// only the sectors the summary names: none at all for a write that arrives
// after bias was re-enabled but before any fast reader published.
func (e *Engine) Revoke() {
	w := e.rbias.Swap(0)
	// Store-load fence required on TSO — Go atomics are seq-cst.
	start := clock.Nanos()
	scanned, conflicts := e.table.waitEmptyIn(e.ID(), w>>sectorBase)
	now := clock.Nanos()
	// Primum non-nocere: limit and bound the slow-down arising from
	// revocation overheads.
	e.policy.RevocationDone(start, now)
	if e.stats != nil {
		e.stats.WriteRevoke.Add(1)
		e.stats.RevokeNanos.Add(now - start)
		e.stats.RevokeScanned.Add(uint64(scanned))
		e.stats.RevokeWaits.Add(uint64(conflicts))
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
	if e.stats != nil {
		e.stats.WriteNormal.Add(1)
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
