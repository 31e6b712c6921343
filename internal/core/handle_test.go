package core

import (
	"sync"
	"testing"

	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/lockcheck"
	"github.com/bravolock/bravo/internal/locks/pfq"
	"github.com/bravolock/bravo/internal/rwl"
)

// --- Deterministic slot collisions (explicit IDs, same slot) ---

// collidingIDs returns two reader identities whose home slots for l are the
// same slot of tab.
func collidingIDs(t *testing.T, tab *bias.Table, l *Lock) (uint64, uint64) {
	t.Helper()
	lockID := l.Engine().ID()
	id1 := uint64(1)
	home := tab.Index(lockID, id1)
	for c := uint64(2); c < 1<<20; c++ {
		if tab.Index(lockID, c) == home {
			return id1, c
		}
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
	id1, id2 := collidingIDs(t, tab, l)
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

// TestHandleRecoversAfterTransientCollision: a handle whose home slot another
// lock held for one RLockH publishes there again as soon as the slot is free,
// with no write (and so no bias flip) in between.
func TestHandleRecoversAfterTransientCollision(t *testing.T) {
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
	t1 := l.RLockH(h)
	if t1&fastBit != 0 {
		t.Fatal("collided handle read was fast")
	}
	l.RUnlockH(h, t1)
	tab.Clear(home)
	t2 := l.RLockH(h)
	if t2&fastBit == 0 || uint32(t2) != home {
		t.Fatalf("handle still diverted after its home slot emptied: tok=%#x want slot %d", t2, home)
	}
	l.RUnlockH(h, t2)
	if st.SlowCollision.Load() != 1 || st.WriteRevoke.Load() != 0 {
		t.Fatalf("want one collision and no revocation: %s", st.Snapshot())
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
		"2d": func() rwl.HandleRWLock {
			return New(new(pfq.Lock), WithTable(bias.NewTable2D(8, 32)), WithPolicy(bias.AlwaysPolicy{}))
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
