package rwsem

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/lockcheck"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/self"
)

// semLock presents an RWSem through the rwl interface so the generic
// lockcheck harness can drive the stock semaphore.
type semLock struct{ s *RWSem }

func (a semLock) RLock() rwl.Token {
	a.s.DownRead(self.ID())
	return 0
}
func (a semLock) RUnlock(rwl.Token)   { a.s.UpRead(self.ID()) }
func (a semLock) Lock()               { a.s.DownWrite(self.ID()) }
func (a semLock) Unlock()             { a.s.UpWrite(self.ID()) }
func (a semLock) WriterPresent() bool { return a.s.WriterPresent() }

func mkStock() rwl.RWLock { return semLock{New(DefaultConfig())} }

func mkNoSpin() rwl.RWLock {
	return semLock{New(Config{SpinOnOwner: false, StockOwnerWrites: true})}
}

func TestExclusion(t *testing.T) {
	lockcheck.Exclusion(t, mkStock, 4, 2, 1500)
}

func TestExclusionNoSpin(t *testing.T) {
	lockcheck.Exclusion(t, mkNoSpin, 4, 2, 1500)
}

func TestExclusionWriteHeavy(t *testing.T) {
	lockcheck.Exclusion(t, mkStock, 2, 4, 1000)
}

func TestReadersConcurrent(t *testing.T) {
	lockcheck.ReadersConcurrent(t, mkStock())
}

func TestWriterExcludesReaders(t *testing.T) {
	lockcheck.WriterExcludesReaders(t, mkStock())
}

func TestReaderCountTracksAcquisitions(t *testing.T) {
	s := New(DefaultConfig())
	s.DownRead(1)
	s.DownRead(2)
	if got := s.ActiveReaders(); got != 2 {
		t.Fatalf("ActiveReaders = %d, want 2", got)
	}
	s.UpRead(1)
	s.UpRead(2)
	if got := s.ActiveReaders(); got != 0 {
		t.Fatalf("ActiveReaders = %d, want 0", got)
	}
}

func TestWriterHandoffToQueuedWriter(t *testing.T) {
	s := New(Config{SpinOnOwner: false})
	s.DownWrite(1)
	var got atomic.Bool
	go func() {
		s.DownWrite(2)
		got.Store(true)
		s.UpWrite(2)
	}()
	lockcheck.Never(t, got.Load, 30*time.Millisecond, "second writer admitted concurrently")
	s.UpWrite(1)
	lockcheck.Eventually(t, got.Load, "queued writer never woken")
}

func TestReaderGroupWakeup(t *testing.T) {
	// Several readers blocked behind a writer must all be admitted together
	// when the writer departs (reader grouping in wakeLocked).
	s := New(Config{SpinOnOwner: false})
	s.DownWrite(1)
	const readers = 6
	var admitted atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(task uint64) {
			defer wg.Done()
			s.DownRead(task)
			admitted.Add(1)
			for admitted.Load() < readers {
				time.Sleep(time.Millisecond)
			}
			s.UpRead(task)
		}(uint64(10 + i))
	}
	// Let the readers reach the queue, then release the writer.
	time.Sleep(20 * time.Millisecond)
	s.UpWrite(1)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("only %d/%d blocked readers admitted simultaneously", admitted.Load(), readers)
	}
}

func TestQueuedWriterBlocksNewReaders(t *testing.T) {
	// hasWaiters diverts arriving readers to the queue, so a queued writer
	// is not starved by a reader stream (kernel-style fairness).
	s := New(Config{SpinOnOwner: false})
	s.DownRead(1)
	var wGot atomic.Bool
	go func() {
		s.DownWrite(2)
		wGot.Store(true)
		s.UpWrite(2)
	}()
	// Wait for the writer to queue.
	lockcheck.Eventually(t, func() bool {
		return s.count.Load()&hasWaiters != 0
	}, "writer never queued")
	var r2Got atomic.Bool
	go func() {
		s.DownRead(3)
		r2Got.Store(true)
		s.UpRead(3)
	}()
	lockcheck.Never(t, r2Got.Load, 30*time.Millisecond, "reader barged past queued writer")
	s.UpRead(1)
	lockcheck.Eventually(t, wGot.Load, "queued writer never admitted")
	lockcheck.Eventually(t, r2Got.Load, "queued reader never admitted")
}

func TestStockOwnerWrites(t *testing.T) {
	s := New(Config{StockOwnerWrites: true})
	s.DownRead(7)
	if !s.ReaderOwned() {
		t.Fatal("reader-owned bits not set")
	}
	if s.owner.Load()>>ownerShift != 7 {
		t.Fatal("stock mode must record the reader's task ID")
	}
	s.UpRead(7)
}

func TestOptimizedOwnerWrites(t *testing.T) {
	// §4: "a reader [sets] only the control bits in the owner field, and
	// only if those bits were not set before".
	s := New(Config{StockOwnerWrites: false})
	s.DownRead(7)
	if !s.ReaderOwned() {
		t.Fatal("reader-owned bits not set by first reader")
	}
	if s.owner.Load()>>ownerShift != 0 {
		t.Fatal("optimized mode must not record task IDs")
	}
	before := s.owner.Load()
	s.DownRead(8) // subsequent reader must not write
	if s.owner.Load() != before {
		t.Fatal("subsequent reader rewrote the owner field")
	}
	s.UpRead(7)
	s.UpRead(8)
	// After a writer, the first reader sets the bits again.
	s.DownWrite(9)
	if s.ReaderOwned() {
		t.Fatal("reader bits survived a writer")
	}
	s.UpWrite(9)
	s.DownRead(10)
	if !s.ReaderOwned() {
		t.Fatal("reader bits not restored after writer")
	}
	s.UpRead(10)
}

// Two writers trading the semaphore with no readers: a writer that enqueues
// just after the holder's UpWrite (which saw no hasWaiters and woke nobody)
// must re-drive the wakeup itself, or it sleeps forever with count ==
// hasWaiters and every later writer queues behind it.
func TestTwoWriterPingPongNoLostWakeup(t *testing.T) {
	for round := 0; round < 12 && !t.Failed(); round++ {
		s := New(Config{SpinOnOwner: round%2 == 1})
		lockcheck.Within(t, 10*time.Second, func() {
			start := make(chan struct{})
			var wg sync.WaitGroup
			for task := uint64(1); task <= 2; task++ {
				wg.Add(1)
				go func(task uint64) {
					defer wg.Done()
					<-start
					for i := 0; i < 1000000; i++ {
						s.DownWrite(task)
						s.UpWrite(task)
					}
				}(task)
			}
			close(start)
			wg.Wait()
		})
		if t.Failed() {
			t.Logf("SpinOnOwner=%v, count=%#x", round%2 == 1, s.count.Load())
		}
	}
}
