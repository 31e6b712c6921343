// Package spin implements polite busy-waiting.
//
// The paper's locks busy-wait on cache-local state; on a real multiprocessor
// a PAUSE instruction suffices. Goroutines are multiplexed onto Ps, so an
// uncooperative spin loop can livelock the scheduler whenever spinners
// outnumber Ps (always true at GOMAXPROCS=1). Every wait loop in this
// repository therefore spins actively for a short burst, then yields with
// runtime.Gosched, and finally sleeps in escalating micro-naps — the
// spin-then-park shape the paper mentions for revoking writers.
package spin

import (
	"runtime"
	"time"
)

// Tunables. activeSpins is deliberately small: with few Ps the active phase
// is nearly useless, and with many Ps the yield phase is still cheap.
const (
	activeSpins = 32  // iterations of pure busy work before yielding
	yieldSpins  = 256 // Gosched calls before starting to sleep
	maxNapNanos = 64 * 1000
	// parkSpins is BeforePark's budget: pause+retry rounds a waiter on a
	// blocking lock spends before it parks. Sized against what parking
	// costs on the Go runtime (measured at PR 17, 2 CPUs, go1.24): a writer
	// pays ≈ 12 µs in sync.RWMutex.Unlock to futex-wake one parked reader,
	// and the reader then waits ≈ 100 µs readied→running when its waker
	// never blocks. 256 rounds is ≈ 1.9 µs: long enough to outlast a
	// sector-limited BRAVO revocation (p50 ≈ 1 µs) plus a short critical
	// section, a sixth of the wake it avoids. Chosen by alternating paired
	// runs (CHANGES.md, PR 17): at 64 rounds readers still park under most
	// writes (lock-read write p50 1.71 vs 1.41 µs, write p99 460–1170 vs
	// 18–117 µs; engine-read 2.27 M vs 3.12 M ops/s, 4/4 pairs); 1024 is
	// indistinguishable from 256 on lock-read, engine-read and engine-write.
	parkSpins = 256
)

var singleP = runtime.GOMAXPROCS(0) == 1

// Backoff tracks the progression of one waiting episode. The zero value is
// ready to use; a Backoff must not be shared between goroutines.
type Backoff struct {
	i int
}

// Reset restarts the backoff progression (call after the awaited condition
// was observed and waiting begins anew).
func (b *Backoff) Reset() { b.i = 0 }

// Once performs one unit of polite waiting and escalates the backoff state.
func (b *Backoff) Once() {
	b.i++
	switch {
	case b.i <= activeSpins && !singleP:
		pause(uint64(b.i))
	case b.i <= yieldSpins:
		runtime.Gosched()
	default:
		nap := time.Duration((b.i - yieldSpins) * 1000)
		if nap > maxNapNanos {
			nap = maxNapNanos
		}
		time.Sleep(nap)
	}
}

// Until spins politely until cond reports true.
func Until(cond func() bool) {
	var b Backoff
	for !cond() {
		b.Once()
	}
}

// BeforePark is the spin half of spin-then-park, the waiting policy the
// paper gives its user-space locks: it retries try for a bounded number of
// rounds and reports whether one succeeded; on false the caller blocks. try
// must be a non-blocking acquisition that fails while a conflicting holder
// is present or queued, so that spinning cannot barge past anyone. With one
// P the holder cannot run while the waiter spins, so nothing is tried.
func BeforePark(try func() bool) bool {
	if singleP {
		return false
	}
	for i := uint64(0); i < parkSpins; i++ {
		pause(i)
		if try() {
			return true
		}
	}
	return false
}

// pause approximates a PAUSE-class delay with a handful of arithmetic ops
// in registers. It must touch no memory: spinners run concurrently, so a
// shared sink would be a data race between them and a contended cache line
// in every wait loop. noinline keeps the call, and so the loop, from being
// optimized away.
//
//go:noinline
func pause(x uint64) uint64 {
	for i := 0; i < 8; i++ {
		x = x*2654435761 + 1
	}
	return x
}
