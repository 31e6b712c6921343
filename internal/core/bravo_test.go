package core

import (
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/clock"
	"github.com/bravolock/bravo/internal/lockcheck"
	"github.com/bravolock/bravo/internal/locks/pfq"
	"github.com/bravolock/bravo/internal/locks/ptl"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/rwsem"
)

// newBiased returns a BRAVO-BA lock with bias pre-enabled (one slow read
// under AlwaysPolicy), its stats, and a private table to keep tests isolated.
func newBiased(t *testing.T, opts ...Option) (*Lock, *bias.Stats) {
	t.Helper()
	st := &bias.Stats{}
	opts = append([]Option{
		WithTable(bias.NewTable(bias.DefaultTableSize)),
		WithPolicy(bias.AlwaysPolicy{}),
		WithStats(st),
	}, opts...)
	l := New(new(pfq.Lock), opts...)
	tok := l.RLock() // slow read enables bias
	l.RUnlock(tok)
	if !l.Biased() {
		t.Fatal("bias not enabled by slow read under AlwaysPolicy")
	}
	return l, st
}

// footprintSink keeps the locks TestLockFootprint builds on the heap.
var footprintSink *Lock

// TestLockFootprint pins what one lock costs by what it allocates, not only
// by its size. The engine is Listing 1's two fields (rbias, InhibitUntil)
// plus one pointer that stays nil until an option needs a configuration
// block, so Lock adds only the substrate interface: 40 bytes, one object in
// the 48-byte size class. A default lock allocates nothing else — no policy,
// no block — so bravo.New(bravo.NewGoRW()) is two objects: the lock and the
// substrate.
func TestLockFootprint(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit ports")
	}
	if got := unsafe.Sizeof(bias.Engine{}); got != 24 {
		t.Errorf("bias.Engine is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(Lock{}); got != 40 {
		t.Errorf("core.Lock is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(rwsem.Bravo{}); got != 32 {
		t.Errorf("rwsem.Bravo is %d bytes, want 32", got)
	}
	sub := new(stdrw.Lock)
	if n := testing.AllocsPerRun(100, func() { footprintSink = New(sub) }); n != 1 {
		t.Errorf("New over a built substrate makes %v allocations, want 1: the lock", n)
	}
	if n := testing.AllocsPerRun(100, func() { footprintSink = New(new(stdrw.Lock)) }); n != 2 {
		t.Errorf("New(new(stdrw.Lock)) makes %v allocations, want 2: the lock and the substrate", n)
	}
	// An option allocates the block once, however many options there are.
	tab, st := bias.NewTable(64), &bias.Stats{}
	if n := testing.AllocsPerRun(100, func() {
		footprintSink = New(sub, WithTable(tab), WithPolicy(bias.NeverPolicy{}), WithStats(st))
	}); n != 2 {
		t.Errorf("New with three options makes %v allocations, want 2: the lock and one block", n)
	}
}

func TestBiasInitiallyDisabled(t *testing.T) {
	st := &bias.Stats{}
	l := New(new(pfq.Lock), WithTable(bias.NewTable(64)), WithStats(st))
	if l.Biased() {
		t.Fatal("fresh lock is biased")
	}
	tok := l.RLock()
	l.RUnlock(tok)
	if st.SlowDisabled.Load() != 1 || st.FastRead.Load() != 0 {
		t.Fatalf("first read must take the slow path: %s", st.Snapshot())
	}
}

func TestFastPathAfterBias(t *testing.T) {
	l, st := newBiased(t)
	for i := 0; i < 100; i++ {
		tok := l.RLock()
		l.RUnlock(tok)
	}
	if st.FastRead.Load() != 100 {
		t.Fatalf("expected 100 fast reads, got %s", st.Snapshot())
	}
	if l.Engine().Table().Occupancy() != 0 {
		t.Fatal("table not clean after fast reads")
	}
}

func TestFastReaderPublishesAndClears(t *testing.T) {
	l, _ := newBiased(t)
	tok := l.RLock()
	if l.Engine().Table().Occupancy() != 1 {
		t.Fatal("fast reader not visible in the table")
	}
	l.RUnlock(tok)
	if l.Engine().Table().Occupancy() != 0 {
		t.Fatal("slot not cleared at unlock")
	}
}

func TestWriterRevokesBias(t *testing.T) {
	l, st := newBiased(t)
	l.Lock()
	if l.Biased() {
		t.Fatal("bias survived a write acquisition")
	}
	l.Unlock()
	if st.WriteRevoke.Load() != 1 {
		t.Fatalf("expected one revocation, got %s", st.Snapshot())
	}
	// A second write must not revoke again.
	l.Lock()
	l.Unlock()
	if st.WriteRevoke.Load() != 1 || st.WriteNormal.Load() != 1 {
		t.Fatalf("second write should be normal: %s", st.Snapshot())
	}
}

func TestRevocationWaitsForFastReaders(t *testing.T) {
	l, st := newBiased(t)
	tok := l.RLock() // fast reader in CS
	if st.FastRead.Load() != 1 {
		t.Fatalf("setup: reader did not take the fast path: %s", st.Snapshot())
	}
	var wGot atomic.Bool
	go func() {
		l.Lock()
		wGot.Store(true)
		l.Unlock()
	}()
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		if wGot.Load() {
			t.Fatal("writer admitted while a fast-path reader was inside")
		}
		time.Sleep(time.Millisecond)
	}
	l.RUnlock(tok)
	waitTrue(t, wGot.Load, "writer not admitted after fast reader departed")
	if st.RevokeWaits.Load() != 1 {
		t.Fatalf("revocation should have awaited one reader: %s", st.Snapshot())
	}
}

// The deterministic publish/recheck race reproduction (the old
// TestRacedReaderFallsBack) now lives with the protocol in
// internal/bias (TestEngineRacedReaderFallsBack).

func TestCollisionFallsBack(t *testing.T) {
	// Force a true collision with a one-slot table shared by two locks.
	tab := bias.NewTable(1)
	st1, st2 := &bias.Stats{}, &bias.Stats{}
	l1 := New(new(pfq.Lock), WithTable(tab), WithPolicy(bias.AlwaysPolicy{}), WithStats(st1))
	l2 := New(new(pfq.Lock), WithTable(tab), WithPolicy(bias.AlwaysPolicy{}), WithStats(st2))
	for _, l := range []*Lock{l1, l2} {
		tok := l.RLock()
		l.RUnlock(tok)
	}
	t1 := l1.RLock() // occupies the only slot
	if st1.FastRead.Load() != 1 {
		t.Fatalf("l1 read not fast: %s", st1.Snapshot())
	}
	t2 := l2.RLock() // must collide and divert
	if st2.SlowCollision.Load() != 1 {
		t.Fatalf("l2 collision not recorded: %s", st2.Snapshot())
	}
	l2.RUnlock(t2)
	l1.RUnlock(t1)
}

func TestInhibitPreventsImmediateRebias(t *testing.T) {
	// After a revocation with a long measured duration, slow readers must
	// not re-enable bias until the inhibit window passes. No policy is
	// installed: the engine's own inhibit rule is under test.
	st := &bias.Stats{}
	l := New(new(pfq.Lock), WithTable(bias.NewTable(64)), WithStats(st))
	tok := l.RLock()
	l.RUnlock(tok)
	if !l.Biased() {
		t.Fatal("bias not set on fresh inhibit policy")
	}
	// Make the revocation appear expensive by stretching the window
	// directly (equivalent to a long reader drain).
	l.Lock()
	l.Unlock()
	l.Engine().ForceInhibitUntil(clock.Nanos() + int64(time.Hour))
	tok = l.RLock()
	l.RUnlock(tok)
	if l.Biased() {
		t.Fatal("bias re-enabled during the inhibit window")
	}
	// Once the window lapses, a slow reader re-enables bias.
	l.Engine().ForceInhibitUntil(clock.Nanos() - 1)
	tok = l.RLock()
	l.RUnlock(tok)
	if !l.Biased() {
		t.Fatal("bias not re-enabled after the inhibit window")
	}
}

func TestUnbiasedLockBehavesLikeUnderlying(t *testing.T) {
	// With NeverPolicy, BRAVO-A must be a pass-through to A.
	st := &bias.Stats{}
	l := New(new(pfq.Lock), WithTable(bias.NewTable(64)), WithPolicy(bias.NeverPolicy{}), WithStats(st))
	for i := 0; i < 50; i++ {
		tok := l.RLock()
		l.RUnlock(tok)
		l.Lock()
		l.Unlock()
	}
	if st.FastRead.Load() != 0 || st.WriteRevoke.Load() != 0 {
		t.Fatalf("NeverPolicy leaked bias: %s", st.Snapshot())
	}
	if st.SlowDisabled.Load() != 50 || st.WriteNormal.Load() != 50 {
		t.Fatalf("pass-through accounting wrong: %s", st.Snapshot())
	}
}

func TestPreferenceTransparency(t *testing.T) {
	// §3: "if reader-writer lock algorithm A has certain preference
	// properties then BRAVO-A will exhibit the same properties". With bias
	// disabled (NeverPolicy) the wrapper must be admission-transparent.
	t.Run("phase-fair substrate", func(t *testing.T) {
		l := New(new(pfq.Lock), WithTable(bias.NewTable(64)), WithPolicy(bias.NeverPolicy{}))
		lockcheck.WaitingWriterBlocksReaders(t, l)
	})
	t.Run("reader-preference substrate", func(t *testing.T) {
		l := New(ptl.New(), WithTable(bias.NewTable(64)), WithPolicy(bias.NeverPolicy{}))
		lockcheck.WaitingWriterStarvedByReaders(t, l)
	})
}

func waitTrue(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatal(msg)
}

func TestStatsSnapshotArithmetic(t *testing.T) {
	st := &bias.Stats{}
	st.FastRead.Store(90)
	st.SlowDisabled.Store(5)
	st.SlowCollision.Store(3)
	st.SlowRaced.Store(2)
	st.WriteNormal.Store(7)
	st.WriteRevoke.Store(3)
	snap := st.Snapshot()
	if snap.Reads() != 100 || snap.Writes() != 10 {
		t.Fatalf("reads=%d writes=%d", snap.Reads(), snap.Writes())
	}
	if f := snap.FastFraction(); f != 0.9 {
		t.Fatalf("fast fraction = %f, want 0.9", f)
	}
	if (bias.Snapshot{}).FastFraction() != 0 {
		t.Fatal("empty snapshot fast fraction should be 0")
	}
	if snap.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestHoldingMultipleLocks(t *testing.T) {
	// §3: "BRAVO fully supports the case where a thread holds multiple
	// locks at the same time."
	tab := bias.NewTable(bias.DefaultTableSize)
	var locks []*Lock
	var toks []rwl.Token
	for i := 0; i < 8; i++ {
		l := New(new(pfq.Lock), WithTable(tab), WithPolicy(bias.AlwaysPolicy{}))
		tok := l.RLock()
		l.RUnlock(tok)
		locks = append(locks, l)
	}
	for _, l := range locks {
		toks = append(toks, l.RLock())
	}
	// Hash collisions can push an unlucky lock to the slow path, so demand
	// near-full rather than exact fast-path residency.
	if occ := tab.Occupancy(); occ < 6 {
		t.Fatalf("8 held locks occupy only %d slots", occ)
	}
	for i, l := range locks {
		l.RUnlock(toks[i])
	}
	if tab.Occupancy() != 0 {
		t.Fatal("slots leaked")
	}
}
