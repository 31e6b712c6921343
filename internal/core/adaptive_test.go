package core

// A Lock whose policy is a bias.Adaptor — the adaptive lock.

import (
	"testing"

	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/rwl"
)

func newAdaptive(under rwl.RWLock) *Lock {
	return New(under, WithTable(bias.NewTable(bias.DefaultTableSize)),
		WithPolicy(bias.NewAdaptor(bias.Thresholds{})))
}

// countingLock counts substrate write acquisitions.
type countingLock struct {
	rwl.RWLock
	locks, unlocks int
}

func (c *countingLock) Lock()   { c.locks++; c.RWLock.Lock() }
func (c *countingLock) Unlock() { c.unlocks++; c.RWLock.Unlock() }

// TestAdaptorWiredIntoEngine verifies the construction contract: the
// adaptor is the engine's policy, so after a demotion the next writer
// revokes bias and it stays off until a promotion — and a write is exactly
// one substrate acquisition in either mode: a policy adds no lock of its own.
func TestAdaptorWiredIntoEngine(t *testing.T) {
	under := &countingLock{RWLock: new(stdrw.Lock)}
	l := newAdaptive(under)
	if l.Adaptor() == nil || l.Engine().PolicyInUse() != bias.Policy(l.Adaptor()) {
		t.Fatal("adaptor is not the engine's policy")
	}
	if New(new(stdrw.Lock)).Adaptor() != nil {
		t.Fatal("a static lock reports an adaptor")
	}
	read := func() {
		l.RUnlock(l.RLock())
		h := rwl.NewReader()
		l.RUnlockH(h, l.RLockH(h))
	}
	read()
	if !l.Biased() {
		t.Fatal("bias did not enable in biased mode")
	}
	// Demote: fast reads continue until the next writer revokes, and slow
	// reads no longer re-enable.
	l.Adaptor().ForceMode(bias.ModeNeutral)
	for i := 0; i < 3; i++ {
		l.Lock()
		l.Unlock()
		read()
		if l.Biased() {
			t.Fatalf("write %d after demotion: bias is on in neutral mode", i+1)
		}
	}
	// Promote: bias returns once the first revocation's inhibit deadline
	// (a few microseconds) has passed.
	l.Adaptor().ForceMode(bias.ModeBiased)
	waitTrue(t, func() bool { read(); return l.Biased() }, "bias did not re-enable after promotion")
	l.Lock()
	l.Unlock()
	if under.locks != 4 || under.unlocks != 4 {
		t.Fatalf("4 writes made %d/%d substrate Lock/Unlock calls", under.locks, under.unlocks)
	}
}
