package core

import (
	"sync"
	"testing"

	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/lockcheck"
	"github.com/bravolock/bravo/internal/locks/pfq"
	"github.com/bravolock/bravo/internal/rwl"
)

// --- Option-order regression (WithInhibitN must tune, never replace) ---

func TestWithInhibitNDoesNotReplacePolicy(t *testing.T) {
	// Regression: WithInhibitN after WithPolicy used to silently discard
	// the installed policy; the reverse order silently discarded N.
	l1 := New(new(pfq.Lock), WithPolicy(bias.AlwaysPolicy{}), WithInhibitN(5))
	if _, ok := l1.Engine().PolicyInUse().(bias.AlwaysPolicy); !ok {
		t.Fatalf("WithInhibitN replaced WithPolicy: %#v", l1.Engine().PolicyInUse())
	}
	l2 := New(new(pfq.Lock), WithInhibitN(5), WithPolicy(bias.AlwaysPolicy{}))
	if _, ok := l2.Engine().PolicyInUse().(bias.AlwaysPolicy); !ok {
		t.Fatalf("WithPolicy lost to earlier WithInhibitN: %#v", l2.Engine().PolicyInUse())
	}
	// With an inhibit policy in play, N lands on it regardless of order.
	l3 := New(new(pfq.Lock), WithPolicy(bias.NewInhibitPolicy(0)), WithInhibitN(5))
	if p := l3.Engine().PolicyInUse().(*bias.InhibitPolicy); p.N != 5 {
		t.Fatalf("policy-then-N: N = %d, want 5", p.N)
	}
	l4 := New(new(pfq.Lock), WithInhibitN(5), WithPolicy(bias.NewInhibitPolicy(0)))
	if p := l4.Engine().PolicyInUse().(*bias.InhibitPolicy); p.N != 5 {
		t.Fatalf("N-then-policy: N = %d, want 5", p.N)
	}
	// WithInhibitN alone still tunes the default policy.
	l5 := New(new(pfq.Lock), WithInhibitN(5))
	if p := l5.Engine().PolicyInUse().(*bias.InhibitPolicy); p.N != 5 {
		t.Fatalf("N alone: N = %d, want 5", p.N)
	}
}

// --- Deterministic slot collisions (explicit IDs, same slot) ---

// collidingIDs returns two reader identities whose primary probes for l
// land in the same slot of tab. wantProbe2Free additionally demands the
// second identity's alternate probe be a different slot.
func collidingIDs(t *testing.T, tab *bias.Table, l *Lock, wantProbe2Free bool) (uint64, uint64) {
	t.Helper()
	lockID := l.Engine().ID()
	id1 := uint64(1)
	home := tab.Index(lockID, id1)
	for c := uint64(2); c < 1<<20; c++ {
		if tab.Index(lockID, c) != home {
			continue
		}
		if wantProbe2Free && tab.Index2(lockID, c) == home {
			continue
		}
		return id1, c
	}
	t.Fatal("no colliding identity found")
	return 0, 0
}

func TestDeterministicCollisionDivertsToSlowPath(t *testing.T) {
	tab := bias.NewTable(64)
	st := &bias.Stats{}
	l := New(new(pfq.Lock), WithTable(tab), WithPolicy(bias.AlwaysPolicy{}), WithStats(st))
	tok := l.RLock() // slow read enables bias
	l.RUnlock(tok)
	id1, id2 := collidingIDs(t, tab, l, false)
	t1 := l.RLockWithID(id1)
	if t1&fastBit == 0 {
		t.Fatal("first reader did not take the fast path")
	}
	t2 := l.RLockWithID(id2)
	if t2&fastBit != 0 {
		t.Fatal("colliding reader took the fast path")
	}
	if st.SlowCollision.Load() != 1 {
		t.Fatalf("collision not recorded: %s", st.Snapshot())
	}
	l.RUnlock(t2)
	l.RUnlock(t1)
	if tab.Occupancy() != 0 {
		t.Fatal("table dirty after collision round trip")
	}
}

func TestDeterministicCollisionRescuedBySecondProbe(t *testing.T) {
	tab := bias.NewTable(64)
	st := &bias.Stats{}
	l := New(new(pfq.Lock), WithTable(tab), WithPolicy(bias.AlwaysPolicy{}),
		WithStats(st), WithSecondProbe())
	tok := l.RLock()
	l.RUnlock(tok)
	id1, id2 := collidingIDs(t, tab, l, true)
	t1 := l.RLockWithID(id1)
	if t1&fastBit == 0 {
		t.Fatal("first reader did not take the fast path")
	}
	t2 := l.RLockWithID(id2)
	if t2&fastBit == 0 {
		t.Fatalf("second probe did not rescue the collision: %s", st.Snapshot())
	}
	alt := tab.Index2(l.Engine().ID(), id2)
	if uint32(t2) != alt {
		t.Fatalf("rescued reader in slot %d, want alternate slot %d", uint32(t2), alt)
	}
	if st.FastRead.Load() != 2 {
		t.Fatalf("want both reads fast: %s", st.Snapshot())
	}
	l.RUnlock(t2)
	l.RUnlock(t1)
}

// --- Handle-accepting read paths ---

func TestHandleSteadyStateReusesCachedSlot(t *testing.T) {
	tab := bias.NewTable(bias.DefaultTableSize)
	st := &bias.Stats{}
	l := New(new(pfq.Lock), WithTable(tab), WithPolicy(bias.AlwaysPolicy{}), WithStats(st))
	h := rwl.NewReaderWithID(42)
	// First read is slow (bias off) and tracked on the handle.
	tok := l.RLockH(h)
	if tok&fastBit != 0 {
		t.Fatal("read fast before bias enabled")
	}
	l.RUnlockH(h, tok)
	home := tab.Index(l.Engine().ID(), 42)
	for i := 0; i < 100; i++ {
		tok := l.RLockH(h)
		if tok&fastBit == 0 {
			t.Fatalf("iteration %d: handle read not fast", i)
		}
		if uint32(tok) != home {
			t.Fatalf("iteration %d: slot %d, want cached home %d", i, uint32(tok), home)
		}
		l.RUnlockH(h, tok)
	}
	if st.FastRead.Load() != 100 {
		t.Fatalf("want 100 fast handle reads: %s", st.Snapshot())
	}
	if tab.Occupancy() != 0 {
		t.Fatal("table dirty after handle reads")
	}
}

func TestHandleCollisionMemoryRetriesAfterBiasFlip(t *testing.T) {
	tab := bias.NewTable(64)
	st := &bias.Stats{}
	l := New(new(pfq.Lock), WithTable(tab), WithPolicy(bias.AlwaysPolicy{}), WithStats(st))
	tok := l.RLock()
	l.RUnlock(tok)
	h := rwl.NewReaderWithID(7)
	home := tab.Index(l.Engine().ID(), 7)
	if _, ok := tab.TryPublishAt(home, uintptr(0xF00D0)); !ok {
		t.Fatal("setup publish failed")
	}
	t1 := l.RLockH(h) // collides, diverts, remembers
	if t1&fastBit != 0 {
		t.Fatal("collided handle read was fast")
	}
	l.RUnlockH(h, t1)
	tab.Clear(home)
	t2 := l.RLockH(h) // same epoch: still diverted despite the free slot
	if t2&fastBit != 0 {
		t.Fatal("diverted handle retried before a bias flip")
	}
	l.RUnlockH(h, t2)
	// A write revokes; the next slow read re-enables bias (new epoch).
	l.Lock()
	l.Unlock()
	t3 := l.RLockH(h)
	if t3&fastBit != 0 { // this read is slow but re-enables bias
		t.Fatal("read fast while bias off")
	}
	l.RUnlockH(h, t3)
	t4 := l.RLockH(h)
	if t4&fastBit == 0 || uint32(t4) != home {
		t.Fatalf("handle did not reclaim home slot after flip: tok=%#x want slot %d", t4, home)
	}
	l.RUnlockH(h, t4)
	if st.SlowCollision.Load() != 2 {
		t.Fatalf("collision accounting: %s", st.Snapshot())
	}
}

func TestHandleAndAnonymousReadersCoexist(t *testing.T) {
	l := New(new(pfq.Lock), WithTable(bias.NewTable(bias.DefaultTableSize)), WithPolicy(bias.AlwaysPolicy{}))
	tok := l.RLock()
	l.RUnlock(tok)
	h := rwl.NewReader()
	th := l.RLockH(h)
	ta := l.RLock()
	if th&fastBit == 0 || ta&fastBit == 0 {
		t.Fatal("mixed readers not both fast")
	}
	l.RUnlock(ta)
	l.RUnlockH(h, th)
	if l.TableInUse().Occupancy() != 0 {
		t.Fatal("table dirty")
	}
}

func TestHandleStorm(t *testing.T) {
	// Handles are per-goroutine; storm the handle paths against writers,
	// across table geometries and policies.
	variants := map[string]func() rwl.HandleRWLock{
		"aggressive": func() rwl.HandleRWLock {
			return New(new(pfq.Lock), WithTable(bias.NewTable(64)), WithPolicy(bias.AlwaysPolicy{}))
		},
		"tiny-table": func() rwl.HandleRWLock {
			return New(new(pfq.Lock), WithTable(bias.NewTable(2)), WithPolicy(bias.AlwaysPolicy{}))
		},
		"probe2": func() rwl.HandleRWLock {
			return New(new(pfq.Lock), WithTable(bias.NewTable(4)), WithPolicy(bias.AlwaysPolicy{}), WithSecondProbe())
		},
		"2d": func() rwl.HandleRWLock {
			return New(new(pfq.Lock), WithTable(bias.NewTable2D(8, 32)), WithPolicy(bias.AlwaysPolicy{}))
		},
		"randomized": func() rwl.HandleRWLock {
			return New(new(pfq.Lock), WithTable(bias.NewTable(64)), WithPolicy(bias.AlwaysPolicy{}), WithRandomizedIndex())
		},
		"default-policy": func() rwl.HandleRWLock {
			return New(new(pfq.Lock), WithTable(bias.NewTable(64)))
		},
	}
	for name, mk := range variants {
		t.Run(name, func(t *testing.T) {
			lockcheck.HandleExclusion(t, mk, 4, 2, 1200)
		})
	}
}

func TestHandleMixedWithAnonymousStorm(t *testing.T) {
	// Handle readers, anonymous readers and writers share one lock.
	l := New(new(pfq.Lock), WithTable(bias.NewTable(64)), WithPolicy(bias.AlwaysPolicy{}))
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := rwl.NewReader()
			for i := 0; i < 1500; i++ {
				tok := l.RLockH(h)
				l.RUnlockH(h, tok)
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1500; i++ {
				tok := l.RLock()
				l.RUnlock(tok)
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				l.Lock()
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if l.TableInUse().Occupancy() != 0 {
		t.Fatal("table dirty after mixed storm")
	}
}

func TestUnbalancedRUnlockDetected(t *testing.T) {
	// The handle's held-slot record must catch double unlocks and
	// unlock-without-lock on both the biased and unbiased read paths.
	t.Run("biased", func(t *testing.T) {
		lockcheck.UnbalancedRUnlock(t, New(new(pfq.Lock),
			WithTable(bias.NewTable(64)), WithPolicy(bias.AlwaysPolicy{})))
	})
	t.Run("unbiased", func(t *testing.T) {
		lockcheck.UnbalancedRUnlock(t, New(new(pfq.Lock),
			WithTable(bias.NewTable(64)), WithPolicy(bias.NeverPolicy{})))
	})
}

func TestUnbalancedAnonymousRUnlockDetected(t *testing.T) {
	// The always-on table guard must catch fast-path misuse on the
	// anonymous token-passing paths too — no handle bookkeeping involved.
	t.Run("shared-table", func(t *testing.T) {
		tab := bias.NewTable(64)
		lockcheck.UnbalancedAnonymousRUnlock(t, func() rwl.RWLock {
			return New(new(pfq.Lock), WithTable(tab), WithPolicy(bias.AlwaysPolicy{}))
		})
	})
	t.Run("2d", func(t *testing.T) {
		tab := bias.NewTable2D(8, 32)
		lockcheck.UnbalancedAnonymousRUnlock(t, func() rwl.RWLock {
			return New(new(pfq.Lock), WithTable(tab), WithPolicy(bias.AlwaysPolicy{}))
		})
	})
}

func TestHandleWorksOn2DTable(t *testing.T) {
	l := New(new(pfq.Lock), WithTable(bias.NewTable2D(8, 32)), WithPolicy(bias.AlwaysPolicy{}))
	tok := l.RLock()
	l.RUnlock(tok)
	h := rwl.NewReader()
	for i := 0; i < 10; i++ {
		tok := l.RLockH(h)
		if tok&fastBit == 0 {
			t.Fatalf("iteration %d: 2D handle read not fast", i)
		}
		l.RUnlockH(h, tok)
	}
	l.Lock() // column-restricted revocation must find cached-slot readers
	l.Unlock()
}

var _ = bias.ReaderSlots // documents the shared capacity bound
