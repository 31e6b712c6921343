package bias

import (
	"sync/atomic"

	"github.com/bravolock/bravo/internal/clock"
)

// DefaultInhibitN is the paper's N: revocation latency is multiplied by N
// and bias re-enabling is inhibited for that long, "bounding the worst-case
// expected slow-down from BRAVO for writers to 1/(N+1)" — about 10% for the
// paper's N = 9 (§3).
const DefaultInhibitN = 9

// Policy decides when a slow-path reader may (re-)enable reader bias.
// Implementations are per-lock and must be safe for concurrent use; note
// that ShouldEnable is only invoked by readers that hold read permission on
// the underlying lock, so it can never race with a revoking writer's
// RevocationDone (writers hold write permission during revocation).
type Policy interface {
	// ShouldEnable reports whether a slow-path reader that currently holds
	// read permission on the underlying lock should set RBias.
	ShouldEnable() bool
	// RevocationDone informs the policy that a revocation began at start and
	// completed at end (monotonic nanoseconds).
	RevocationDone(start, end int64)
}

// InhibitPolicy is the paper's production policy as an object: after a
// revocation that took D nanoseconds, bias may not be re-enabled for N·D
// nanoseconds. This is the primum-non-nocere throttle: the worst case writer
// slow-down is bounded near 1/(N+1) regardless of workload. An engine with
// no policy installed runs the same rule inline at N = DefaultInhibitN.
type InhibitPolicy struct {
	// N is the slow-down guard multiplier (Listing 1's N; default 9).
	N     int64
	until deadline
}

// NewInhibitPolicy returns the paper's policy with multiplier n
// (n <= 0 selects DefaultInhibitN).
func NewInhibitPolicy(n int64) *InhibitPolicy {
	if n <= 0 {
		n = DefaultInhibitN
	}
	return &InhibitPolicy{N: n}
}

// ShouldEnable implements Policy: Time() >= InhibitUntil.
func (p *InhibitPolicy) ShouldEnable() bool { return p.until.lapsed() }

// RevocationDone implements Policy: InhibitUntil = now + (now-start)·N.
func (p *InhibitPolicy) RevocationDone(start, end int64) { p.until.revoked(start, end, p.N) }

// deadline is Listing 1's InhibitUntil, shared by the engine's inline rule,
// InhibitPolicy and Adaptor: the earliest time bias may be re-enabled.
type deadline struct{ atomic.Int64 }

// revoked moves the deadline past a revocation that ran from start to end:
// InhibitUntil = end + (end-start)·N (Listing 1 line 49). The measured
// period conservatively includes the wait for fast readers to depart, not
// just the scan.
func (d *deadline) revoked(start, end, n int64) { d.Store(end + (end-start)*n) }

// lapsed reports Time() >= InhibitUntil.
func (d *deadline) lapsed() bool { return clock.Nanos() >= d.Load() }

// AlwaysPolicy re-enables bias at every opportunity — the aggressive
// endpoint of the policy ablation (the paper's thought experiment of
// re-enabling bias after every write).
type AlwaysPolicy struct{}

// ShouldEnable implements Policy.
func (AlwaysPolicy) ShouldEnable() bool { return true }

// RevocationDone implements Policy.
func (AlwaysPolicy) RevocationDone(start, end int64) {}

// NeverPolicy never enables bias, reducing BRAVO-A to A plus one branch —
// the null endpoint of the policy ablation (and the configuration used to
// validate the locktorture hypothesis in §6.1).
type NeverPolicy struct{}

// ShouldEnable implements Policy.
func (NeverPolicy) ShouldEnable() bool { return false }

// RevocationDone implements Policy.
func (NeverPolicy) RevocationDone(start, end int64) {}
