package lockcheck

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/locks/pfq"
	"github.com/bravolock/bravo/internal/locks/ptl"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/rwl"
)

// The checkers are themselves load-bearing: every lock package's test file
// is a handful of one-liners through them. These tests certify the checkers
// against known-good locks from both admission families, plus the BRAVO
// wrapper, so a checker regression cannot silently hollow out the whole
// correctness battery.

func mkGoRW() rwl.RWLock  { return new(stdrw.Lock) }
func mkPtl() rwl.RWLock   { return ptl.New() }
func mkBravo() rwl.RWLock { return core.New(new(pfq.Lock)) }

func TestExclusionAcceptsCorrectLocks(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() rwl.RWLock
	}{
		{"go-rw", mkGoRW},
		{"pthread", mkPtl},
		{"bravo-ba", mkBravo},
	} {
		t.Run(tc.name, func(t *testing.T) {
			Exclusion(t, tc.mk, 4, 2, 300)
		})
	}
}

func TestTryExclusionAcceptsCorrectLock(t *testing.T) {
	TryExclusion(t, mkBravo, 4, 300)
}

func TestReadersConcurrentAcceptsRWLock(t *testing.T) {
	ReadersConcurrent(t, mkGoRW())
	ReadersConcurrent(t, mkBravo())
}

func TestWriterExcludesReadersAcceptsRWLock(t *testing.T) {
	WriterExcludesReaders(t, mkGoRW())
	WriterExcludesReaders(t, mkBravo())
}

func TestWaitingWriterBlocksReadersOnPhaseFair(t *testing.T) {
	// PF-Q hands the lock writer-then-reader in phases; a reader arriving
	// behind a waiting writer must wait its turn.
	WaitingWriterBlocksReaders(t, new(pfq.Lock))
}

func TestWaitingWriterStarvedByReadersOnReaderPref(t *testing.T) {
	// The POSIX-style lock prefers readers: a late reader overtakes the
	// waiting writer.
	WaitingWriterStarvedByReaders(t, mkPtl())
}

func TestEventuallyReturnsOnceCondHolds(t *testing.T) {
	var flag atomic.Bool
	go func() {
		time.Sleep(5 * time.Millisecond)
		flag.Store(true)
	}()
	start := time.Now()
	Eventually(t, flag.Load, "flag never set")
	if time.Since(start) > 5*time.Second {
		t.Fatal("Eventually kept polling long after the condition held")
	}
}

func TestNeverToleratesFalseCond(t *testing.T) {
	calls := 0
	Never(t, func() bool { calls++; return false }, 20*time.Millisecond, "unreachable")
	if calls == 0 {
		t.Fatal("Never did not poll the condition")
	}
}

// TestExclusionDetectsViolations runs the detector's occupancy accounting
// against a deliberately broken "lock" that admits everyone, on a separate
// probe testing.T (and its own goroutine, since Fatalf ends in Goexit) so
// the expected failure does not fail this test.
func TestExclusionDetectsViolations(t *testing.T) {
	const readers, writers = 4, 2
	probe := &testing.T{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		l := &brokenLock{workers: readers + writers, all: make(chan struct{})}
		Exclusion(probe, func() rwl.RWLock { return l }, readers, writers, 500)
	}()
	<-done
	if !probe.Failed() {
		t.Fatal("Exclusion did not flag a lock with no mutual exclusion at all")
	}
}

// brokenLock grants every acquisition immediately — except that each
// worker's first one waits until every worker has made one. The workers'
// loops are then all live at once, so their sections overlap whatever the
// scheduler does; unsynchronised, one worker could finish its loop before a
// loaded host started the next.
type brokenLock struct {
	workers int32
	arrived atomic.Int32
	all     chan struct{}
}

// acquire is the barrier: a worker blocks inside its first call, so the
// first `workers` calls belong to distinct workers.
func (b *brokenLock) acquire() {
	if n := b.arrived.Add(1); n <= b.workers {
		if n == b.workers {
			close(b.all)
		}
		<-b.all
	}
}

func (b *brokenLock) RLock() rwl.Token { b.acquire(); return 0 }
func (*brokenLock) RUnlock(rwl.Token)  {}
func (b *brokenLock) Lock()            { b.acquire() }
func (*brokenLock) Unlock()            {}

// TestExploreVisitsEachReachableStateOnce walks a 5-cycle with chords: every
// state is reached by two edges and visited once.
func TestExploreVisitsEachReachableStateOnce(t *testing.T) {
	visits := map[int]int{}
	n := Explore(0, func(s int, next func(int)) {
		visits[s]++
		next((s + 1) % 5)
		next((s + 2) % 5)
	})
	if n != 5 || len(visits) != 5 || visits[0]*visits[1]*visits[2]*visits[3]*visits[4] != 1 {
		t.Fatalf("Explore saw %d states, visits %v; want 0..4 once each", n, visits)
	}
}
