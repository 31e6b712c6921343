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
	a.s.DownRead(tk(self.ID()))
	return 0
}
func (a semLock) RUnlock(rwl.Token)   { a.s.UpRead(tk(self.ID())) }
func (a semLock) Lock()               { a.s.DownWrite(tk(self.ID())) }
func (a semLock) Unlock()             { a.s.UpWrite(tk(self.ID())) }
func (a semLock) WriterPresent() bool { return a.s.WriterPresent() }

// tk is a task with identity id: the stock semaphore reads only its ID.
func tk(id uint64) *Task { return &Task{ID: id} }

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
	s.DownRead(tk(1))
	s.DownRead(tk(2))
	if got := s.count.Load() >> readerShift; got != 2 {
		t.Fatalf("active readers = %d, want 2", got)
	}
	s.UpRead(tk(1))
	s.UpRead(tk(2))
	if got := s.count.Load() >> readerShift; got != 0 {
		t.Fatalf("active readers = %d, want 0", got)
	}
}

func TestWriterHandoffToQueuedWriter(t *testing.T) {
	s := New(Config{SpinOnOwner: false})
	s.DownWrite(tk(1))
	var got atomic.Bool
	go func() {
		s.DownWrite(tk(2))
		got.Store(true)
		s.UpWrite(tk(2))
	}()
	lockcheck.Never(t, got.Load, 30*time.Millisecond, "second writer admitted concurrently")
	s.UpWrite(tk(1))
	lockcheck.Eventually(t, got.Load, "queued writer never woken")
}

func TestReaderGroupWakeup(t *testing.T) {
	// Several readers blocked behind a writer must all be admitted together
	// when the writer departs (reader grouping in wakeLocked).
	s := New(Config{SpinOnOwner: false})
	s.DownWrite(tk(1))
	const readers = 6
	var admitted atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(task uint64) {
			defer wg.Done()
			s.DownRead(tk(task))
			admitted.Add(1)
			for admitted.Load() < readers {
				time.Sleep(time.Millisecond)
			}
			s.UpRead(tk(task))
		}(uint64(10 + i))
	}
	// Let the readers reach the queue, then release the writer.
	time.Sleep(20 * time.Millisecond)
	s.UpWrite(tk(1))
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
	s.DownRead(tk(1))
	var wGot atomic.Bool
	go func() {
		s.DownWrite(tk(2))
		wGot.Store(true)
		s.UpWrite(tk(2))
	}()
	// Wait for the writer to queue.
	lockcheck.Eventually(t, func() bool {
		return s.count.Load()&hasWaiters != 0
	}, "writer never queued")
	var r2Got atomic.Bool
	go func() {
		s.DownRead(tk(3))
		r2Got.Store(true)
		s.UpRead(tk(3))
	}()
	lockcheck.Never(t, r2Got.Load, 30*time.Millisecond, "reader barged past queued writer")
	s.UpRead(tk(1))
	lockcheck.Eventually(t, wGot.Load, "queued writer never admitted")
	lockcheck.Eventually(t, r2Got.Load, "queued reader never admitted")
}

func TestStockOwnerWrites(t *testing.T) {
	s := New(Config{StockOwnerWrites: true})
	s.DownRead(tk(7))
	if s.owner.Load()&ownerReader == 0 {
		t.Fatal("reader-owned bits not set")
	}
	if s.owner.Load()>>ownerShift != 7 {
		t.Fatal("stock mode must record the reader's task ID")
	}
	s.UpRead(tk(7))
}

func TestOptimizedOwnerWrites(t *testing.T) {
	// §4: "a reader [sets] only the control bits in the owner field, and
	// only if those bits were not set before".
	s := New(Config{StockOwnerWrites: false})
	s.DownRead(tk(7))
	if s.owner.Load()&ownerReader == 0 {
		t.Fatal("reader-owned bits not set by first reader")
	}
	if s.owner.Load()>>ownerShift != 0 {
		t.Fatal("optimized mode must not record task IDs")
	}
	before := s.owner.Load()
	s.DownRead(tk(8)) // subsequent reader must not write
	if s.owner.Load() != before {
		t.Fatal("subsequent reader rewrote the owner field")
	}
	s.UpRead(tk(7))
	s.UpRead(tk(8))
	// After a writer, the first reader sets the bits again.
	s.DownWrite(tk(9))
	if s.owner.Load()&ownerReader != 0 {
		t.Fatal("reader bits survived a writer")
	}
	s.UpWrite(tk(9))
	s.DownRead(tk(10))
	if s.owner.Load()&ownerReader == 0 {
		t.Fatal("reader bits not restored after writer")
	}
	s.UpRead(tk(10))
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
				go func(task *Task) {
					defer wg.Done()
					<-start
					for i := 0; i < 1000000; i++ {
						s.DownWrite(task)
						s.UpWrite(task)
					}
				}(tk(task))
			}
			close(start)
			wg.Wait()
		})
		if t.Failed() {
			t.Logf("SpinOnOwner=%v, count=%#x", round%2 == 1, s.count.Load())
		}
	}
}
