package bias_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/lockcheck"
	"github.com/bravolock/bravo/internal/locks/stdrw"
)

// TestSummaryStorm storms the occupancy summary where it is most exposed: a
// 32-slot table (every sector is two slots, so readers keep landing in and
// out of each other's sectors), a policy that re-enables bias after every
// write (so every write revokes and every revocation races fresh marks), and
// handle and anonymous readers sharing the one mask — on the shipped
// substrate, so the spin-then-park read path runs under the race detector
// too. A reader missed by a sector-limited scan shows as a reader inside a
// writer's critical section.
func TestSummaryStorm(t *testing.T) {
	const iters = 100000
	lockcheck.Within(t, 60*time.Second, func() {
		st := new(bias.Stats)
		l := core.New(new(stdrw.Lock),
			core.WithTable(bias.NewTable(32)),
			core.WithPolicy(bias.AlwaysPolicy{}),
			core.WithStats(st))
		var state, violations atomic.Int64
		read := func() {
			if state.Add(256)&0xff != 0 {
				violations.Add(1)
			}
			state.Add(-256)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		run := func(body func()) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < iters; i++ {
					body()
					if i%256 == 0 {
						runtime.Gosched() // six goroutines on two Ps: mix them finer than a time slice
					}
				}
			}()
		}
		for i := 0; i < 2; i++ {
			h := bias.NewReader()
			run(func() {
				tok := l.RLockH(h)
				read()
				l.RUnlockH(h, tok)
			})
			run(func() {
				tok := l.RLock()
				read()
				l.RUnlock(tok)
			})
			run(func() {
				l.Lock()
				if state.Add(1) != 1 {
					violations.Add(1)
				}
				state.Add(-1)
				l.Unlock()
			})
		}
		close(start)
		wg.Wait()
		if v := violations.Load(); v != 0 {
			t.Errorf("mutual exclusion violated %d times", v)
		}
		snap := st.Snapshot()
		if snap.FastRead == 0 || snap.WriteRevoke == 0 {
			t.Errorf("storm never exercised the protocol: %s", snap)
		}
		if snap.RevokeScanned >= snap.WriteRevoke*32 {
			t.Errorf("every revocation scanned the whole table: %s", snap)
		}
	})
}
