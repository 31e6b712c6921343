package bias

import (
	"sync"
	"sync/atomic"

	"github.com/bravolock/bravo/internal/clock"
	"github.com/bravolock/bravo/internal/locks/seq"
	"github.com/bravolock/bravo/internal/spin"
)

// Mode is a lock's bias posture, chosen per shard by an Adaptor.
type Mode uint32

const (
	// ModeBiased is the paper's reader-biased BRAVO: zero-CAS-adjacent read
	// fast path, writers pay revocation.
	ModeBiased Mode = iota
	// ModeNeutral holds bias off: readers take the substrate read path,
	// writers never revoke, and admission is whatever the substrate's is —
	// FIFO-fair over internal/locks/fairrw.
	ModeNeutral
)

// String returns the mode name used in stats documents.
func (m Mode) String() string {
	switch m {
	case ModeBiased:
		return "biased"
	case ModeNeutral:
		return "neutral"
	}
	return "unknown"
}

// Thresholds parameterize the Adaptor's hysteresis band over the observed
// read fraction r = reads/(reads+writes) of one window. The entry bound is
// deliberately separated from the exit bound so a shard whose mix sits
// between them keeps its current mode instead of ping-ponging.
// Construction-time only: an Adaptor's thresholds never change once built.
type Thresholds struct {
	// BiasEnter: flip into ModeBiased when r >= BiasEnter (and revocation
	// overhead is not already excessive).
	BiasEnter float64
	// BiasExit: leave ModeBiased when r < BiasExit.
	BiasExit float64
	// Window is the number of operations that closes one observation window.
	Window uint64
	// InhibitN is the paper's inhibit multiplier N, used twice: per
	// revocation, bias may not be re-enabled for N times its duration
	// (Listing 1 line 49), and per window, a biased shard whose revocation
	// time exceeds 1/(N+1) of the window's wall time is demoted even if its
	// read fraction still clears BiasExit — the same "bound the writer
	// slow-down" budget, enforced over the window as well as the moment.
	InhibitN int64
}

// DefaultThresholds returns the default hysteresis configuration. The gap
// between the Enter and Exit bounds is the no-flip dead zone.
func DefaultThresholds() Thresholds {
	return Thresholds{BiasEnter: 0.90, BiasExit: 0.80, Window: 4096, InhibitN: DefaultInhibitN}
}

// sanitize fills zero fields with defaults and restores the band ordering
// BiasExit <= BiasEnter where violated.
func (t Thresholds) sanitize() Thresholds {
	d := DefaultThresholds()
	if t.Window == 0 {
		t.Window = d.Window
	}
	if t.InhibitN <= 0 {
		t.InhibitN = d.InhibitN
	}
	if t.BiasEnter <= 0 || t.BiasEnter > 1 {
		t.BiasEnter = d.BiasEnter
	}
	if t.BiasExit <= 0 {
		t.BiasExit = d.BiasExit
	}
	if t.BiasExit > t.BiasEnter {
		t.BiasExit = t.BiasEnter
	}
	return t
}

// AdaptorSnapshot is a coherent view of an Adaptor: the mode and the window
// counters it was derived from are read under one seq bracket, so a snapshot
// taken mid-flip can never pair a new mode with a stale window (or vice
// versa) — the same rule the KV engine applies to seqcell reads.
type AdaptorSnapshot struct {
	Mode    Mode
	Flips   uint64
	Windows uint64 // observation windows closed so far
	// Deltas of the most recently closed window.
	WindowReads       uint64
	WindowWrites      uint64
	WindowRevocations uint64
	Revocations       uint64 // cumulative revocations observed
}

// Adaptor is the adaptive bias Policy: Listing 1's inhibit deadline plus a
// mode word that a closed loop flips between biased and neutral. The owner
// feeds it cumulative read/write counts it already maintains (Offer), the
// engine feeds it revocation costs through the Policy contract
// (RevocationDone), and bias may be (re-)enabled only while the mode is
// biased and the deadline has passed (ShouldEnable). Install it like any
// policy (Engine.SetPolicy); a demotion needs no mechanism of its own — the
// next writer revokes any residual bias once, and it stays off until the
// adaptor promotes again. Lock read paths never load the mode: only a
// slow-path reader holding substrate read permission does, in ShouldEnable.
//
// Decisions happen only when a window closes and apply at most one flip, so
// a shard can never flip twice within one window — the anti-ping-pong
// invariant DESIGN.md records.
//
// The zero value is not ready; use NewAdaptor.
type Adaptor struct {
	mode atomic.Uint32
	// until is the earliest time bias may be re-enabled (InhibitUntil).
	until   atomic.Int64
	flips   atomic.Uint64
	windows atomic.Uint64

	// Last closed window's deltas, published under seqc with the mode.
	winReads   atomic.Uint64
	winWrites  atomic.Uint64
	winRevokes atomic.Uint64

	// Cumulative revocation feedback from the engine.
	revokes     atomic.Uint64
	revokeNanos atomic.Int64

	// seqc brackets every mode flip and window publication; Snapshot
	// validates against it.
	seqc seq.Count

	th Thresholds // fixed before the lock is shared

	mu sync.Mutex // serializes window evaluation
	// Window baselines, owned by mu.
	lastReads   uint64
	lastWrites  uint64
	lastRevokes uint64
	lastRevNs   int64
	lastNanos   int64
}

var _ Policy = (*Adaptor)(nil)

// NewAdaptor returns an Adaptor starting in ModeBiased with th (zero fields
// take defaults).
func NewAdaptor(th Thresholds) *Adaptor {
	return &Adaptor{th: th.sanitize(), lastNanos: clock.Nanos()}
}

// Mode returns the current bias posture.
func (a *Adaptor) Mode() Mode { return Mode(a.mode.Load()) }

// ShouldEnable implements Policy: the mode is biased and Time() >=
// InhibitUntil.
func (a *Adaptor) ShouldEnable() bool {
	return a.mode.Load() == uint32(ModeBiased) && clock.Nanos() >= a.until.Load()
}

// RevocationDone implements Policy: it moves the inhibit deadline exactly
// as InhibitPolicy does and accumulates the cost for the window's overload
// check. Called by the engine with write permission held.
func (a *Adaptor) RevocationDone(start, end int64) {
	a.until.Store(end + (end-start)*a.th.InhibitN)
	a.revokes.Add(1)
	a.revokeNanos.Add(end - start)
}

// setInhibitN implements inhibitTuner.
func (a *Adaptor) setInhibitN(n int64) { a.th.InhibitN = n }

// Offer hands the adaptor the owner's current cumulative read and write
// counts. If the deltas since the last window close fill a window, the
// window is evaluated and the mode may flip (at most once). Contended or
// mid-window calls return immediately; callers should invoke it on a
// sampled cadence, not per operation.
func (a *Adaptor) Offer(reads, writes uint64) {
	if !a.mu.TryLock() {
		return
	}
	a.offerLocked(reads, writes)
	a.mu.Unlock()
}

func (a *Adaptor) offerLocked(reads, writes uint64) {
	dr := reads - a.lastReads
	dw := writes - a.lastWrites
	if dr+dw < a.th.Window {
		return
	}
	now := clock.Nanos()
	elapsed := now - a.lastNanos
	revs := a.revokes.Load()
	revNs := a.revokeNanos.Load()
	drv := revs - a.lastRevokes
	drn := revNs - a.lastRevNs
	a.lastReads, a.lastWrites = reads, writes
	a.lastRevokes, a.lastRevNs = revs, revNs
	a.lastNanos = now

	r := float64(dr) / float64(dr+dw)
	// The generalized inhibit bound: revocation time above 1/(N+1) of the
	// window's wall time disqualifies (or demotes from) biased mode.
	// (Divide the elapsed side: the nanos delta could overflow a product.)
	overloaded := elapsed > 0 && drn > elapsed/(a.th.InhibitN+1)

	// The hysteresis band: leave biased below BiasExit (or overloaded),
	// enter it at BiasEnter, hold the mode in between.
	target := Mode(a.mode.Load())
	switch {
	case target == ModeBiased && (overloaded || r < a.th.BiasExit):
		target = ModeNeutral
	case target == ModeNeutral && r >= a.th.BiasEnter && !overloaded:
		target = ModeBiased
	}

	// Publish the closed window and any flip under one seq bracket so
	// snapshots never pair a mode with counters from a different window.
	a.seqc.WriteBegin()
	a.windows.Add(1)
	a.winReads.Store(dr)
	a.winWrites.Store(dw)
	a.winRevokes.Store(drv)
	if target != Mode(a.mode.Load()) {
		a.mode.Store(uint32(target))
		a.flips.Add(1)
	}
	a.seqc.WriteEnd()
}

// ForceMode flips the mode directly, bypassing window evaluation. Used by
// the model-based equivalence tests to inject deterministic mid-schedule
// flips, and available as an administrative override.
func (a *Adaptor) ForceMode(m Mode) {
	if m > ModeNeutral {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if Mode(a.mode.Load()) == m {
		return
	}
	a.seqc.WriteBegin()
	a.mode.Store(uint32(m))
	a.flips.Add(1)
	a.seqc.WriteEnd()
}

// Snapshot returns a coherent view: all fields are loaded inside one
// validated seq bracket, so a concurrent flip can never yield a
// mode/counter combination that never existed.
func (a *Adaptor) Snapshot() AdaptorSnapshot {
	var b spin.Backoff
	for {
		s, ok := a.seqc.TryBegin()
		if !ok {
			b.Once()
			continue
		}
		snap := AdaptorSnapshot{
			Mode:              Mode(a.mode.Load()),
			Flips:             a.flips.Load(),
			Windows:           a.windows.Load(),
			WindowReads:       a.winReads.Load(),
			WindowWrites:      a.winWrites.Load(),
			WindowRevocations: a.winRevokes.Load(),
			Revocations:       a.revokes.Load(),
		}
		if !a.seqc.Retry(s) {
			return snap
		}
		b.Once()
	}
}
