package pfq

import (
	"sync"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/lockcheck"
	"github.com/bravolock/bravo/internal/rwl"
)

func mk() rwl.RWLock { return new(Lock) }

func TestExclusion(t *testing.T) {
	lockcheck.Exclusion(t, mk, 4, 2, 2000)
}

func TestExclusionWriteHeavy(t *testing.T) {
	lockcheck.Exclusion(t, mk, 2, 4, 1500)
}

func TestExclusionManyReaders(t *testing.T) {
	lockcheck.Exclusion(t, mk, 12, 1, 1000)
}

func TestTryExclusion(t *testing.T) {
	lockcheck.TryExclusion(t, mk, 6, 1500)
}

func TestReadersConcurrent(t *testing.T) {
	lockcheck.ReadersConcurrent(t, mk())
}

func TestWriterExcludesReaders(t *testing.T) {
	lockcheck.WriterExcludesReaders(t, mk())
}

func TestPhaseFairness(t *testing.T) {
	lockcheck.WaitingWriterBlocksReaders(t, mk())
}

func TestWriterPresentDiagnostic(t *testing.T) {
	l := new(Lock)
	l.Lock()
	if !l.WriterPresent() {
		t.Fatal("held write lock not reported")
	}
	l.Unlock()
	if l.WriterPresent() {
		t.Fatal("released lock still reports writer present")
	}
}

func TestBlockedReadersReleasedAsAPhase(t *testing.T) {
	// Several readers blocked behind one writer must all be admitted when
	// that writer departs (the detach-and-release path).
	l := new(Lock)
	r0 := l.RLock()
	wIn := make(chan struct{})
	wOut := make(chan struct{})
	go func() {
		l.Lock()
		close(wIn)
		<-wOut
		l.Unlock()
	}()
	lockcheck.Eventually(t, l.WriterPresent, "writer never announced")
	const blocked = 8
	var wg sync.WaitGroup
	admitted := make(chan int, blocked)
	for i := 0; i < blocked; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tok := l.RLock()
			admitted <- i
			l.RUnlock(tok)
		}(i)
	}
	l.RUnlock(r0)
	<-wIn
	close(wOut)
	wg.Wait()
	if len(admitted) != blocked {
		t.Fatalf("only %d/%d blocked readers admitted", len(admitted), blocked)
	}
}

func TestWriteHandoffChain(t *testing.T) {
	// Writers queued behind each other must all complete (MCS handoff).
	l := new(Lock)
	var wg sync.WaitGroup
	const writers = 10
	counter := 0
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 300; j++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != writers*300 {
		t.Fatalf("counter = %d, want %d", counter, writers*300)
	}
}

func TestTryLockContention(t *testing.T) {
	l := new(Lock)
	tok := l.RLock()
	if l.TryLock() {
		t.Fatal("TryLock succeeded while reader active")
	}
	l.RUnlock(tok)
	if !l.TryLock() {
		t.Fatal("TryLock failed on free lock")
	}
	// A second TryLock must fail while held.
	if l.TryLock() {
		t.Fatal("TryLock succeeded while writer held")
	}
	l.Unlock()
	// And the lock must be fully functional afterwards.
	tok = l.RLock()
	l.RUnlock(tok)
}

// A reader that observed writer W1's bits and enqueued after W1's detach
// must admit itself even when successor W2 has already announced: W2 counted
// the reader's arrival and is waiting for its departure.
func TestSuccessorWriterDoesNotStrandReader(t *testing.T) {
	for round := 0; round < 300 && !t.Failed(); round++ {
		lockcheck.Within(t, 10*time.Second, func() { lockcheck.Exclusion(t, mk, 4, 2, 2000) })
	}
}

// Failed TryLocks must not expose writer bits: two announce-and-retract
// tries used to flip the one-bit phase ID back to the value a slow reader
// observed, parking it behind a writer that was draining it.
func TestFailedTryLockDoesNotStrandReader(t *testing.T) {
	for round := 0; round < 300 && !t.Failed(); round++ {
		lockcheck.Within(t, 10*time.Second, func() { lockcheck.TryExclusion(t, mk, 6, 1500) })
	}
}
