package core

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/clock"
	"github.com/bravolock/bravo/internal/locks/mutexrw"
	"github.com/bravolock/bravo/internal/locks/pfq"
	"github.com/bravolock/bravo/internal/locks/pft"
	"github.com/bravolock/bravo/internal/locks/ptl"
	"github.com/bravolock/bravo/internal/rwl"
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
	if l.TableInUse().Occupancy() != 0 {
		t.Fatal("table not clean after fast reads")
	}
}

func TestFastReaderPublishesAndClears(t *testing.T) {
	l, _ := newBiased(t)
	tok := l.RLock()
	if l.TableInUse().Occupancy() != 1 {
		t.Fatal("fast reader not visible in the table")
	}
	l.RUnlock(tok)
	if l.TableInUse().Occupancy() != 0 {
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

func TestSecondProbeRescuesCollision(t *testing.T) {
	// With a 2-slot table and double probing, a colliding reader lands in
	// the alternate slot instead of diverting.
	tab := bias.NewTable(2)
	st := &bias.Stats{}
	l := New(new(pfq.Lock), WithTable(tab), WithPolicy(bias.AlwaysPolicy{}),
		WithStats(st), WithSecondProbe())
	tok := l.RLock()
	l.RUnlock(tok)
	// Find an identity whose two probes land in different slots, then
	// occupy its primary slot with a foreign lock.
	lockID := l.Engine().ID()
	id := uint64(0)
	for ; id < 1000; id++ {
		if tab.Index(lockID, id) != tab.Index2(lockID, id) {
			break
		}
	}
	idx := tab.Index(lockID, id)
	if _, ok := tab.TryPublishAt(idx, uintptr(0xF00D0)); !ok {
		t.Fatal("setup publish failed")
	}
	t2 := l.RLockWithID(id)
	if st.FastRead.Load() != 1 {
		t.Fatalf("second probe did not rescue the collision: %s", st.Snapshot())
	}
	l.RUnlock(t2)
	tab.Clear(idx)
}

func TestInhibitPreventsImmediateRebias(t *testing.T) {
	// After a revocation with a long measured duration, slow readers must
	// not re-enable bias until the inhibit window passes.
	st := &bias.Stats{}
	pol := bias.NewInhibitPolicy(9)
	l := New(new(pfq.Lock), WithTable(bias.NewTable(64)), WithPolicy(pol), WithStats(st))
	tok := l.RLock()
	l.RUnlock(tok)
	if !l.Biased() {
		t.Fatal("bias not set on fresh inhibit policy")
	}
	// Make the revocation appear expensive by stretching the window
	// directly (equivalent to a long reader drain).
	l.Lock()
	l.Unlock()
	pol.ForceInhibitUntil(clock.Nanos() + int64(time.Hour))
	tok = l.RLock()
	l.RUnlock(tok)
	if l.Biased() {
		t.Fatal("bias re-enabled during the inhibit window")
	}
	// Once the window lapses, a slow reader re-enables bias.
	pol.ForceInhibitUntil(clock.Nanos() - 1)
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

func TestTryRLockFastPath(t *testing.T) {
	l, st := newBiased(t)
	tok, ok := l.TryRLock()
	if !ok {
		t.Fatal("TryRLock failed on biased lock")
	}
	if st.FastRead.Load() != 1 {
		t.Fatalf("TryRLock did not use the fast path: %s", st.Snapshot())
	}
	l.RUnlock(tok)
}

func TestTryRLockSlowFallback(t *testing.T) {
	st := &bias.Stats{}
	l := New(new(pfq.Lock), WithTable(bias.NewTable(64)), WithPolicy(bias.AlwaysPolicy{}), WithStats(st))
	tok, ok := l.TryRLock() // bias off → underlying try
	if !ok {
		t.Fatal("TryRLock failed on free lock")
	}
	if !l.Biased() {
		t.Fatal("successful underlying try-read should enable bias when the policy allows (§3)")
	}
	l.RUnlock(tok)
}

func TestTryLockRevokes(t *testing.T) {
	l, st := newBiased(t)
	if !l.TryLock() {
		t.Fatal("TryLock failed on free lock")
	}
	if l.Biased() {
		t.Fatal("TryLock did not revoke bias")
	}
	l.Unlock()
	if st.WriteRevoke.Load() != 1 {
		t.Fatalf("TryLock revocation not recorded: %s", st.Snapshot())
	}
}

func TestTryLockWaitsForFastReaders(t *testing.T) {
	l, _ := newBiased(t)
	tok := l.RLock()
	// The fast reader holds no underlying state, so the underlying TryLock
	// succeeds — but revocation must then wait. TryLock is therefore only
	// non-blocking with respect to the underlying lock; verify it still
	// completes once the reader leaves.
	done := make(chan bool)
	go func() {
		ok := l.TryLock()
		done <- ok
	}()
	select {
	case <-done:
		t.Fatal("TryLock returned while a fast reader was inside")
	case <-time.After(50 * time.Millisecond):
	}
	l.RUnlock(tok)
	if ok := <-done; !ok {
		t.Fatal("TryLock failed after reader departed")
	}
	l.Unlock()
}

func TestMutexUnderlyingNoTrySupport(t *testing.T) {
	// ptl implements TryRWLock; ensure the non-try substrate path degrades
	// gracefully (pfq has try; use a bare non-try wrapper).
	l := New(nonTry{inner: new(pfq.Lock)}, WithTable(bias.NewTable(64)))
	if _, ok := l.TryRLock(); ok {
		t.Fatal("TryRLock succeeded without substrate support and without bias")
	}
	if l.TryLock() {
		t.Fatal("TryLock succeeded without substrate support")
	}
}

// nonTry hides the try methods of an underlying lock.
type nonTry struct{ inner rwl.RWLock }

func (n nonTry) RLock() rwl.Token    { return n.inner.RLock() }
func (n nonTry) RUnlock(t rwl.Token) { n.inner.RUnlock(t) }
func (n nonTry) Lock()               { n.inner.Lock() }
func (n nonTry) Unlock()             { n.inner.Unlock() }

func TestRevocationMutexAllowsReadersDuringScan(t *testing.T) {
	// Future-work variant (§7): with the revocation mutex, a reader arriving
	// during a (long) revocation scan is admitted via the slow path.
	st := &bias.Stats{}
	l := New(new(pfq.Lock), WithTable(bias.NewTable(64)), WithPolicy(bias.AlwaysPolicy{}),
		WithStats(st), WithRevocationMutex())
	tok := l.RLock()
	l.RUnlock(tok)
	held := l.RLock() // fast reader pins the revocation scan
	var wGot atomic.Bool
	go func() {
		l.Lock()
		wGot.Store(true)
		l.Unlock()
	}()
	// While the writer is stuck in pre-revocation, a new reader must get in.
	var rGot atomic.Bool
	go func() {
		tok := l.RLock()
		rGot.Store(true)
		l.RUnlock(tok)
	}()
	waitTrue(t, rGot.Load, "reader blocked during revocation despite revocation mutex")
	if wGot.Load() {
		t.Fatal("writer admitted while fast reader inside")
	}
	l.RUnlock(held)
	waitTrue(t, wGot.Load, "writer not admitted after fast reader departed")
}

func TestBravoOverMutexGivesReadConcurrency(t *testing.T) {
	// BRAVO-mutex (§7): the fast path is the sole source of read-read
	// concurrency. Two fast readers must coexist.
	l := New(new(mutexrw.Lock), WithTable(bias.NewTable(64)), WithPolicy(bias.AlwaysPolicy{}))
	tok := l.RLock() // slow (exclusive) read, enables bias
	l.RUnlock(tok)
	t1 := l.RLock()
	done := make(chan rwl.Token)
	go func() { done <- l.RLock() }()
	select {
	case t2 := <-done:
		l.RUnlock(t2)
	case <-time.After(10 * time.Second):
		t.Fatal("BRAVO-mutex denied fast-path read-read concurrency")
	}
	l.RUnlock(t1)
}

func TestPreferenceTransparency(t *testing.T) {
	// §3: "if reader-writer lock algorithm A has certain preference
	// properties then BRAVO-A will exhibit the same properties". With bias
	// disabled (NeverPolicy) the wrapper must be admission-transparent.
	t.Run("phase-fair substrate", func(t *testing.T) {
		l := New(new(pft.Lock), WithTable(bias.NewTable(64)), WithPolicy(bias.NeverPolicy{}))
		checkWaitingWriterBlocks(t, l)
	})
	t.Run("reader-preference substrate", func(t *testing.T) {
		l := New(ptl.New(), WithTable(bias.NewTable(64)), WithPolicy(bias.NeverPolicy{}))
		checkReaderBargesPastWriter(t, l)
	})
}

func checkWaitingWriterBlocks(t *testing.T, l rwl.RWLock) {
	t.Helper()
	r1 := l.RLock()
	var wGot, r2Got atomic.Bool
	release := make(chan struct{})
	go func() {
		l.Lock()
		wGot.Store(true)
		<-release
		l.Unlock()
	}()
	wp := l.(interface{ WriterPresent() bool })
	waitTrue(t, wp.WriterPresent, "writer never announced")
	go func() {
		tok := l.RLock()
		r2Got.Store(true)
		l.RUnlock(tok)
	}()
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		if r2Got.Load() {
			t.Fatal("reader barged past waiting writer through BRAVO wrapper")
		}
		time.Sleep(time.Millisecond)
	}
	l.RUnlock(r1)
	waitTrue(t, wGot.Load, "writer starved")
	close(release)
	waitTrue(t, r2Got.Load, "blocked reader never admitted")
}

func checkReaderBargesPastWriter(t *testing.T, l rwl.RWLock) {
	t.Helper()
	r1 := l.RLock()
	var wGot, r2Got atomic.Bool
	release := make(chan struct{})
	go func() {
		l.Lock()
		wGot.Store(true)
		<-release
		l.Unlock()
	}()
	time.Sleep(20 * time.Millisecond) // let the writer queue up
	go func() {
		tok := l.RLock()
		r2Got.Store(true)
		l.RUnlock(tok)
	}()
	waitTrue(t, r2Got.Load, "reader-preference substrate blocked a reader behind a waiting writer")
	if wGot.Load() {
		t.Fatal("writer admitted while reader held")
	}
	l.RUnlock(r1)
	waitTrue(t, wGot.Load, "writer starved after readers drained")
	close(release)
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
