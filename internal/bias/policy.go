package bias

import (
	"sync/atomic"

	"github.com/bravolock/bravo/internal/clock"
	"github.com/bravolock/bravo/internal/hash"
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

// inhibitTuner is a policy that carries the paper's N multiplier, which
// Engine.SetInhibitN may therefore tune in place: InhibitPolicy and Adaptor.
type inhibitTuner interface{ setInhibitN(n int64) }

// InhibitPolicy is the paper's production policy: after a revocation that
// took D nanoseconds, bias may not be re-enabled for N·D nanoseconds. This
// is the primum-non-nocere throttle: the worst case writer slow-down is
// bounded near 1/(N+1) regardless of workload.
type InhibitPolicy struct {
	// N is the slow-down guard multiplier (Listing 1's N; default 9).
	N int64
	// until is the earliest time bias may be re-enabled (InhibitUntil).
	until atomic.Int64
}

// NewInhibitPolicy returns the paper's policy with multiplier n
// (n <= 0 selects DefaultInhibitN).
func NewInhibitPolicy(n int64) *InhibitPolicy {
	if n <= 0 {
		n = DefaultInhibitN
	}
	return &InhibitPolicy{N: n}
}

func (p *InhibitPolicy) setInhibitN(n int64) { p.N = n }

// ShouldEnable implements Policy: Time() >= InhibitUntil.
func (p *InhibitPolicy) ShouldEnable() bool {
	return clock.Nanos() >= p.until.Load()
}

// RevocationDone implements Policy: InhibitUntil = now + (now-start)·N
// (Listing 1 line 49). The measured period conservatively includes the time
// spent waiting for fast readers to depart, not just the scan.
func (p *InhibitPolicy) RevocationDone(start, end int64) {
	p.until.Store(end + (end-start)*p.N)
}

// InhibitedUntil exposes the current deadline (diagnostics and tests).
func (p *InhibitPolicy) InhibitedUntil() int64 { return p.until.Load() }

// ForceInhibitUntil overwrites the deadline (tests simulate long or lapsed
// revocations without sleeping).
func (p *InhibitPolicy) ForceInhibitUntil(deadline int64) { p.until.Store(deadline) }

// BernoulliPolicy is the early-prototype policy (§3): enable bias on a
// Bernoulli trial with probability 1/P. It has no revocation feedback, so —
// as the paper warns — it admits pathological workloads where writers
// repeatedly pay revocation; it is retained for the policy ablation.
type BernoulliPolicy struct {
	// P is the inverse probability; the paper's prototype used 100.
	P uint64
}

// ShouldEnable implements Policy via a stateless pseudo-random trial.
func (p *BernoulliPolicy) ShouldEnable() bool {
	n := p.P
	if n == 0 {
		n = 100
	}
	return hash.Mix64(uint64(clock.Nanos()))%n == 0
}

// RevocationDone implements Policy; the Bernoulli policy ignores feedback.
func (p *BernoulliPolicy) RevocationDone(start, end int64) {}

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
