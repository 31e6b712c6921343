package fairrw

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/lockcheck"
)

// TestMutualExclusion hammers the lock with mixed readers and writers and
// checks the invariant directly: writers are alone, readers never overlap a
// writer.
func TestMutualExclusion(t *testing.T) {
	var l Lock
	var readers, writers atomic.Int32
	var violations atomic.Int32
	const goroutines = 8
	const iters = 2000

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if (g+i)%4 == 0 {
					l.Lock()
					if writers.Add(1) != 1 || readers.Load() != 0 {
						violations.Add(1)
					}
					writers.Add(-1)
					l.Unlock()
				} else {
					tok := l.RLock()
					readers.Add(1)
					if writers.Load() != 0 {
						violations.Add(1)
					}
					readers.Add(-1)
					l.RUnlock(tok)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := violations.Load(); n != 0 {
		t.Fatalf("mutual exclusion violated %d times", n)
	}
}

// TestWriterExcludesWriter checks plain writer-writer exclusion over a
// shared counter.
func TestWriterExcludesWriter(t *testing.T) {
	var l Lock
	var counter int
	const goroutines = 4
	const iters = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d", counter, goroutines*iters)
	}
}

// TestFIFOOrder verifies ticket-order admission: a reader that arrives while
// a writer is queued behind a held read lock enters only after that writer,
// so a late reader cannot overtake it (the reader-preference starvation the
// paper attributes to centralized rwlocks cannot happen here). Queued, not a
// grace period, tells when each has taken its ticket; Within turns a reader
// that never enters into a failure instead of a hang.
func TestFIFOOrder(t *testing.T) {
	lockcheck.Within(t, 10*time.Second, func() {
		var l Lock
		tok := l.RLock() // ticket 0, held
		var wrote, read, overtook atomic.Bool
		go func() {
			l.Lock() // ticket 1: waits for ticket 0 to depart
			wrote.Store(true)
			l.Unlock()
		}()
		for l.Queued() < 2 {
			runtime.Gosched()
		}
		go func() {
			rt := l.RLock() // ticket 2: waits for the writer
			overtook.Store(!wrote.Load())
			read.Store(true)
			l.RUnlock(rt)
		}()
		for l.Queued() < 3 && !read.Load() { // a queue-jumper may be in and out already
			runtime.Gosched()
		}
		lockcheck.Never(t, read.Load, 50*time.Millisecond, "a reader overtook the queued writer while the first read lock was held")
		l.RUnlock(tok)
		lockcheck.Eventually(t, read.Load, "the reader behind the writer never entered")
		if overtook.Load() {
			t.Error("the reader entered before the writer queued ahead of it")
		}
		lockcheck.Eventually(t, func() bool { return l.Queued() == 0 }, "tickets left outstanding after a full drain")
	})
}

// TestReadersShare verifies that readers adjacent in ticket order hold the
// lock concurrently: the second read lock is taken, blocking, while the
// first is held.
func TestReadersShare(t *testing.T) {
	lockcheck.Within(t, 10*time.Second, func() {
		var l Lock
		t1 := l.RLock()
		t2 := l.RLock()
		l.RUnlock(t1)
		l.RUnlock(t2)
	})
}

// TestWraparound pushes the tickets across the uint32 boundary; equality
// comparisons must keep admitting correctly.
func TestWraparound(t *testing.T) {
	var l Lock
	start := ^uint32(0) - 3
	l.next.Store(start)
	l.read.Store(start)
	l.write.Store(start)
	for i := 0; i < 8; i++ {
		if i%2 == 0 {
			l.Lock()
			l.Unlock()
		} else {
			tok := l.RLock()
			l.RUnlock(tok)
		}
	}
	if l.Queued() != 0 {
		t.Fatalf("Queued = %d after wraparound drain", l.Queued())
	}
}
