package bias

import (
	"testing"

	"github.com/bravolock/bravo/internal/clock"
)

func TestInhibitPolicyMath(t *testing.T) {
	// Listing 1 line 49: InhibitUntil = now + (now - start)·N.
	p := NewInhibitPolicy(9)
	p.RevocationDone(100, 250)
	if got, want := p.until.Load(), int64(250+150*9); got != want {
		t.Fatalf("InhibitUntil = %d, want %d", got, want)
	}
}

func TestInhibitPolicyDefaultN(t *testing.T) {
	p := NewInhibitPolicy(0)
	if p.N != DefaultInhibitN {
		t.Fatalf("default N = %d, want %d", p.N, DefaultInhibitN)
	}
	if DefaultInhibitN != 9 {
		t.Fatalf("paper uses N = 9, got %d", DefaultInhibitN)
	}
}

func TestInhibitPolicyGates(t *testing.T) {
	p := NewInhibitPolicy(9)
	if !p.ShouldEnable() {
		t.Fatal("fresh policy must allow bias")
	}
	// A long revocation pushes the deadline far into the future.
	now := clock.Nanos()
	p.RevocationDone(now, now+int64(10e9)) // 10s revocation → 90s inhibit
	if p.ShouldEnable() {
		t.Fatal("bias allowed during inhibit window")
	}
	// A deadline in the past re-allows bias.
	p.until.Store(clock.Nanos() - 1)
	if !p.ShouldEnable() {
		t.Fatal("bias not allowed after inhibit window passed")
	}
}

func TestInhibitPolicyWorstCaseBound(t *testing.T) {
	// The slow-down bound: with revocation cost D and inhibit N·D, at most
	// one revocation can occur per (N+1)·D of wall time, so the writer
	// overhead fraction is ≤ D/((N+1)·D) = 1/(N+1) ≈ 10% for N = 9.
	p := NewInhibitPolicy(9)
	const d = 1000
	start := int64(0)
	p.RevocationDone(start, start+d)
	window := p.until.Load() - start
	frac := float64(d) / float64(window)
	if frac > 1.0/float64(9+1)+1e-9 {
		t.Fatalf("worst-case writer slow-down %.3f exceeds 1/(N+1)", frac)
	}
}

func TestEndpointPolicies(t *testing.T) {
	if !(AlwaysPolicy{}).ShouldEnable() {
		t.Fatal("AlwaysPolicy refused")
	}
	if (NeverPolicy{}).ShouldEnable() {
		t.Fatal("NeverPolicy agreed")
	}
	(AlwaysPolicy{}).RevocationDone(0, 1)
	(NeverPolicy{}).RevocationDone(0, 1)
}
