// Package lockcheck provides reusable invariant checkers for reader-writer
// locks. Every lock package's tests drive the same storms and admission
// probes through these helpers, so a new lock implementation inherits the
// full correctness battery by writing a handful of one-line tests.
package lockcheck

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/xrand"
)

// Exclusion runs a concurrent storm of readers and writers against a fresh
// lock from mk and fails the test if a writer ever overlaps another writer
// or any reader. The occupancy word packs active writers in the low byte and
// active readers above it, so violations are detected at the moment of
// admission.
func Exclusion(t *testing.T, mk func() rwl.RWLock, readers, writers, iters int) {
	t.Helper()
	l := mk()
	var state atomic.Int64 // readers·256 + writers
	var violations atomic.Int64
	var wg sync.WaitGroup

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.NewXorShift64(seed)
			for i := 0; i < iters; i++ {
				tok := l.RLock()
				if state.Add(256)&0xff != 0 {
					violations.Add(1)
				}
				if rng.Intn(8) == 0 {
					runtime.Gosched()
				}
				state.Add(-256)
				l.RUnlock(tok)
			}
		}(uint64(r + 1))
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.NewXorShift64(seed)
			for i := 0; i < iters; i++ {
				l.Lock()
				if state.Add(1) != 1 {
					violations.Add(1)
				}
				if rng.Intn(4) == 0 {
					runtime.Gosched()
				}
				state.Add(-1)
				l.Unlock()
			}
		}(uint64(1000 + w))
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("mutual exclusion violated %d times", v)
	}
	if s := state.Load(); s != 0 {
		t.Fatalf("lock accounting left residue %d", s)
	}
}

// TryExclusion storms TryRLock/TryLock alongside blocking acquisitions.
func TryExclusion(t *testing.T, mk func() rwl.RWLock, workers, iters int) {
	t.Helper()
	l := mk()
	tl, ok := l.(rwl.TryRWLock)
	if !ok {
		t.Fatalf("lock does not implement TryRWLock")
	}
	var state atomic.Int64
	var violations atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.NewXorShift64(seed)
			for i := 0; i < iters; i++ {
				switch rng.Intn(4) {
				case 0:
					if tok, ok := tl.TryRLock(); ok {
						if state.Add(256)&0xff != 0 {
							violations.Add(1)
						}
						state.Add(-256)
						l.RUnlock(tok)
					}
				case 1:
					if tl.TryLock() {
						if state.Add(1) != 1 {
							violations.Add(1)
						}
						state.Add(-1)
						l.Unlock()
					}
				case 2:
					tok := l.RLock()
					if state.Add(256)&0xff != 0 {
						violations.Add(1)
					}
					state.Add(-256)
					l.RUnlock(tok)
				default:
					l.Lock()
					if state.Add(1) != 1 {
						violations.Add(1)
					}
					state.Add(-1)
					l.Unlock()
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("try-lock mutual exclusion violated %d times", v)
	}
}

// HandleExclusion is Exclusion through the handle-accepting read paths:
// every reader goroutine owns a private rwl.Reader and the storm verifies
// that cached-slot fast paths never compromise mutual exclusion.
func HandleExclusion(t *testing.T, mk func() rwl.HandleRWLock, readers, writers, iters int) {
	t.Helper()
	l := mk()
	var state atomic.Int64 // readers·256 + writers
	var violations atomic.Int64
	var wg sync.WaitGroup

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			h := rwl.NewReader()
			rng := xrand.NewXorShift64(seed)
			for i := 0; i < iters; i++ {
				tok := l.RLockH(h)
				if state.Add(256)&0xff != 0 {
					violations.Add(1)
				}
				if rng.Intn(8) == 0 {
					runtime.Gosched()
				}
				state.Add(-256)
				l.RUnlockH(h, tok)
			}
		}(uint64(r + 1))
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.NewXorShift64(seed)
			for i := 0; i < iters; i++ {
				l.Lock()
				if state.Add(1) != 1 {
					violations.Add(1)
				}
				if rng.Intn(4) == 0 {
					runtime.Gosched()
				}
				state.Add(-1)
				l.Unlock()
			}
		}(uint64(1000 + w))
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("handle-path mutual exclusion violated %d times", v)
	}
	if s := state.Load(); s != 0 {
		t.Fatalf("lock accounting left residue %d", s)
	}
}

// UnbalancedRUnlock certifies that a handle-lock's held-slot record catches
// read-unlock misuse: a double RUnlockH of one acquisition, and an RUnlockH
// with no acquisition at all, must both panic instead of silently
// corrupting lock state.
func UnbalancedRUnlock(t *testing.T, l rwl.HandleRWLock) {
	t.Helper()
	h := rwl.NewReader()
	// Warm so at least one legitimate acquire/release pair has happened on
	// both paths bias may choose.
	tok := l.RLockH(h)
	l.RUnlockH(h, tok)
	tok = l.RLockH(h)
	l.RUnlockH(h, tok)
	if !panics(func() { l.RUnlockH(h, tok) }) {
		t.Fatal("double RUnlockH did not panic")
	}
	if !panics(func() { l.RUnlockH(rwl.NewReader(), tok) }) {
		t.Fatal("RUnlockH without RLockH did not panic")
	}
	// The lock must remain usable after rejected misuse.
	tok = l.RLockH(h)
	l.RUnlockH(h, tok)
	l.Lock()
	l.Unlock()
}

// UnbalancedAnonymousRUnlock certifies the always-on fast-path guard on the
// token-passing anonymous read paths: a double RUnlock of a fast-path
// token, a stale token replayed after its slot was republished (the ABA
// case handle bookkeeping cannot see), and a fast token handed to a
// different lock must all panic deterministically. The check lives in the
// visible-readers table itself (per-slot publication generations), so it
// holds in production builds, not only under handle-based test harnesses.
// mk must build locks whose fast path can engage (bias enables on read).
func UnbalancedAnonymousRUnlock(t *testing.T, mk func() rwl.RWLock) {
	t.Helper()
	// Fast-path tokens are tagged with bit 63 (the rwl.Token convention).
	const fastBit = rwl.Token(1) << 63
	fastTok := func(l rwl.RWLock) rwl.Token {
		t.Helper()
		for i := 0; i < 1000; i++ {
			tok := l.RLock()
			if tok&fastBit != 0 {
				return tok
			}
			l.RUnlock(tok)
		}
		t.Fatal("lock never granted a fast-path read (bias not enabling)")
		return 0
	}
	l, l2 := mk(), mk()

	// Double unlock: the first release bumps the slot generation, so the
	// second can never match.
	tok := fastTok(l)
	l.RUnlock(tok)
	if !panics(func() { l.RUnlock(tok) }) {
		t.Fatal("double anonymous RUnlock of a fast token did not panic")
	}

	// Stale replay under republication: a fresh read from the same
	// goroutine re-occupies the same slot with the same lock identity; only
	// the generation distinguishes the live token from the stale one.
	live := fastTok(l)
	if !panics(func() { l.RUnlock(tok) }) {
		t.Fatal("stale token unlock did not panic while its slot was republished")
	}
	l.RUnlock(live)

	// Cross-lock: a fast token from one lock released on another.
	tok = fastTok(l)
	if !panics(func() { l2.RUnlock(tok) }) {
		t.Fatal("fast token released on the wrong lock did not panic")
	}
	l.RUnlock(tok)

	// The lock must remain usable after rejected misuse.
	tok = l.RLock()
	l.RUnlock(tok)
	l.Lock()
	l.Unlock()
}

// panics reports whether fn panicked.
func panics(fn func()) (p bool) {
	defer func() {
		if recover() != nil {
			p = true
		}
	}()
	fn()
	return false
}

// ReadersConcurrent asserts that the lock admits at least two simultaneous
// readers (work conservation of read-read parallelism).
func ReadersConcurrent(t *testing.T, l rwl.RWLock) {
	t.Helper()
	t1 := l.RLock()
	done := make(chan rwl.Token)
	go func() { done <- l.RLock() }()
	select {
	case t2 := <-done:
		l.RUnlock(t2)
	case <-time.After(5 * time.Second):
		t.Fatal("second reader was not admitted alongside an active reader")
	}
	l.RUnlock(t1)
}

// WriterExcludesReaders asserts that while a writer holds the lock, a reader
// is not admitted, and is admitted after the writer departs.
func WriterExcludesReaders(t *testing.T, l rwl.RWLock) {
	t.Helper()
	l.Lock()
	var got atomic.Bool
	go func() {
		tok := l.RLock()
		got.Store(true)
		l.RUnlock(tok)
	}()
	Never(t, got.Load, 50*time.Millisecond, "reader admitted while writer held the lock")
	l.Unlock()
	Eventually(t, got.Load, "reader not admitted after writer departed")
}

// WaitingWriterBlocksReaders probes writer-preference / phase-fair
// admission: with a reader active and a writer waiting, a newly arriving
// reader must not be admitted until the writer has had its turn.
func WaitingWriterBlocksReaders(t *testing.T, l rwl.RWLock) {
	t.Helper()
	r1 := l.RLock()
	var wGot, r2Got atomic.Bool
	wRelease := make(chan struct{})
	go func() {
		l.Lock()
		wGot.Store(true)
		<-wRelease
		l.Unlock()
	}()
	// Wait until the writer has announced itself (it cannot be admitted
	// while r1 is active).
	waitWriterVisible(t, l)
	go func() {
		tok := l.RLock()
		r2Got.Store(true)
		l.RUnlock(tok)
	}()
	Never(t, r2Got.Load, 50*time.Millisecond, "reader barged past a waiting writer")
	l.RUnlock(r1)
	Eventually(t, wGot.Load, "writer not admitted after readers drained")
	close(wRelease)
	Eventually(t, r2Got.Load, "blocked reader not admitted after writer departed")
}

// WaitingWriterStarvedByReaders probes strong reader preference: with a
// reader active and a writer waiting, a newly arriving reader IS admitted
// ahead of the writer.
func WaitingWriterStarvedByReaders(t *testing.T, l rwl.RWLock) {
	t.Helper()
	r1 := l.RLock()
	var wGot, r2Got atomic.Bool
	wRelease := make(chan struct{})
	go func() {
		l.Lock()
		wGot.Store(true)
		<-wRelease
		l.Unlock()
	}()
	waitWriterWaiting(t, 100*time.Millisecond)
	go func() {
		tok := l.RLock()
		r2Got.Store(true)
		l.RUnlock(tok)
	}()
	Eventually(t, r2Got.Load, "reader-preference lock blocked a reader behind a waiting writer")
	if wGot.Load() {
		t.Fatal("writer was admitted while a reader held the lock")
	}
	l.RUnlock(r1)
	Eventually(t, wGot.Load, "writer not admitted after readers drained")
	close(wRelease)
}

// waitWriterVisible waits until the lock reports a writer present, via the
// WriterPresent diagnostic when available, otherwise a grace sleep.
func waitWriterVisible(t *testing.T, l rwl.RWLock) {
	t.Helper()
	if wp, ok := l.(interface{ WriterPresent() bool }); ok {
		Eventually(t, wp.WriterPresent, "writer never became visible")
		return
	}
	waitWriterWaiting(t, 100*time.Millisecond)
}

func waitWriterWaiting(t *testing.T, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// Eventually polls cond (yielding) and fails the test if it does not hold
// within a generous deadline.
func Eventually(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		runtime.Gosched()
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatal(msg)
}

// Never asserts cond stays false for the duration.
func Never(t *testing.T, cond func() bool, d time.Duration, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			t.Fatal(msg)
		}
		runtime.Gosched()
		time.Sleep(100 * time.Microsecond)
	}
}

// Within runs storm on at least two Ps and fails the test if it has not
// returned by d. A lost wakeup parks the storm's goroutines forever, which
// without a deadline reads as a ten-minute package timeout instead of a
// failure; and it needs real parallelism to occur at all.
func Within(t *testing.T, d time.Duration, storm func()) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	done := make(chan struct{})
	go func() {
		// A storm may report through t.Fatalf, which off the test goroutine
		// only exits this one; the deferred close still signals completion
		// and the failure stays recorded on t.
		defer close(done)
		storm()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("still running after %v: lost wakeup", d)
	}
}

// Explore visits every state reachable from init exactly once and returns
// how many there are; visit inspects one state and hands each successor to
// next. The small-scope protocol models (bias's occupancy summary, fairrw's
// ticket hand-off) supply states and invariants, Explore exhaustiveness.
func Explore[S comparable](init S, visit func(s S, next func(S))) int {
	seen := map[S]bool{}
	stack := []S{init}
	push := func(n S) { stack = append(stack, n) }
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !seen[s] {
			seen[s] = true
			visit(s, push)
		}
	}
	return len(seen)
}
