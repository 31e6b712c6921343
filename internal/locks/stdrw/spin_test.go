package stdrw

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/lockcheck"
	"github.com/bravolock/bravo/internal/spin"
)

// TestExclusionParallel is the exclusion storm on at least two Ps, where a
// reader that meets a writer spins before it parks.
func TestExclusionParallel(t *testing.T) {
	lockcheck.Within(t, 60*time.Second, func() {
		lockcheck.Exclusion(t, mk, 4, 2, 20000)
	})
}

// TestWriterNotStarvedBySpinningReaders keeps readers arriving without pause
// — between them the lock is never free of readers, and every one that meets
// the writer spins on TryRLock — and requires one writer to get in, again
// and again, before the deadline. TryRLock fails while a writer is queued, so
// the spinners cannot barge past it.
func TestWriterNotStarvedBySpinningReaders(t *testing.T) {
	for _, procs := range []int{2, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			lockcheck.Within(t, 30*time.Second, func() {
				l := new(Lock)
				var stop atomic.Bool
				var wg, reading sync.WaitGroup
				for r := 0; r < 2*procs; r++ {
					wg.Add(1)
					reading.Add(1)
					go func() {
						defer wg.Done()
						for first := true; !stop.Load(); first = false {
							tok := l.RLock()
							if first {
								reading.Done()
							}
							runtime.Gosched() // hold across a reschedule so holds overlap
							l.RUnlock(tok)
						}
					}()
				}
				reading.Wait()
				for i := 0; i < 2000; i++ {
					l.Lock()
					l.Unlock()
				}
				stop.Store(true)
				wg.Wait()
			})
		}()
	}
}

// TestSpinSkippedOnOneP runs in CI's GOMAXPROCS=1 leg: a process started on
// one P never spins before parking (spin's own tests cover the helper at any
// P count).
func TestSpinSkippedOnOneP(t *testing.T) {
	if runtime.GOMAXPROCS(0) != 1 {
		t.Skip("needs a process started with GOMAXPROCS=1")
	}
	if spin.BeforePark(func() bool { t.Error("try called on a single P"); return true }) {
		t.Fatal("BeforePark spun on a single P")
	}
}
