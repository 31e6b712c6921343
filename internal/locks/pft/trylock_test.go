package pft

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/lockcheck"
)

// TestFailedTryLockDoesNotStrandReader is the regression for the package
// invariant: with PHID taken from the ticket's parity and TryLock announcing
// before it backed out, a reader napping across two failed TryLocks woke to
// the very bit pair it was waiting to see change, now owned by a blocking
// writer that was waiting for it — six stranded readers and one writer
// within a few hundred acquisitions of this storm.
func TestFailedTryLockDoesNotStrandReader(t *testing.T) {
	lockcheck.Within(t, 10*time.Second, func() {
		l := new(Lock)
		var stop atomic.Bool
		var wg sync.WaitGroup
		for r := 0; r < 6; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					tok := l.RLock()
					l.RUnlock(tok)
				}
			}()
		}
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					if l.TryLock() {
						l.Unlock()
					}
					runtime.Gosched()
				}
			}()
		}
		for i := 0; i < 3000; i++ {
			l.Lock()
			l.Unlock()
		}
		stop.Store(true)
		wg.Wait()
	})
}
