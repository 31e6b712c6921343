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

// The Adaptor's hysteresis band over the observed read fraction r =
// reads/(reads+writes) of one window of adaptWindow operations: flip into
// ModeBiased when r >= biasEnter (and revocation overhead is not already
// excessive), leave it when r < biasExit. The gap between the bounds is the
// dead zone where a shard keeps its current mode instead of ping-ponging.
// The inhibit multiplier is the paper's N (DefaultInhibitN), used twice: per
// revocation, bias may not be re-enabled for N times its duration (Listing 1
// line 49), and per window, a biased shard whose revocation time exceeds
// 1/(N+1) of the window's wall time is demoted even if its read fraction
// still clears biasExit — the same "bound the writer slow-down" budget,
// enforced over the window as well as the moment.
const (
	biasEnter   = 0.90
	biasExit    = 0.80
	adaptWindow = 4096
)

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
	mode    atomic.Uint32
	until   deadline
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

	mu sync.Mutex // serializes window evaluation
	// Window baselines, owned by mu.
	lastReads   uint64
	lastWrites  uint64
	lastRevokes uint64
	lastRevNs   int64
	lastNanos   int64
}

var _ Policy = (*Adaptor)(nil)

// NewAdaptor returns an Adaptor starting in ModeBiased.
func NewAdaptor() *Adaptor {
	return &Adaptor{lastNanos: clock.Nanos()}
}

// ShouldEnable implements Policy: the mode is biased and Time() >=
// InhibitUntil.
func (a *Adaptor) ShouldEnable() bool {
	return a.mode.Load() == uint32(ModeBiased) && a.until.lapsed()
}

// RevocationDone implements Policy: it moves the inhibit deadline exactly
// as InhibitPolicy does and accumulates the cost for the window's overload
// check. Called by the engine with write permission held.
func (a *Adaptor) RevocationDone(start, end int64) {
	a.until.revoked(start, end, DefaultInhibitN)
	a.revokes.Add(1)
	a.revokeNanos.Add(end - start)
}

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
	if dr+dw < adaptWindow {
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
	overloaded := elapsed > 0 && drn > elapsed/(DefaultInhibitN+1)

	// The hysteresis band: leave biased below biasExit (or overloaded),
	// enter it at biasEnter, hold the mode in between.
	target := Mode(a.mode.Load())
	switch {
	case target == ModeBiased && (overloaded || r < biasExit):
		target = ModeNeutral
	case target == ModeNeutral && r >= biasEnter && !overloaded:
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
