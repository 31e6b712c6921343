package ticket

import (
	"runtime"
	"sync"
	"testing"
)

func TestMutualExclusion(t *testing.T) {
	var m Mutex
	var counter int
	var wg sync.WaitGroup
	const workers, iters = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Lock()
				counter++
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d (lost updates imply broken exclusion)", counter, workers*iters)
	}
}

func TestHasWaiters(t *testing.T) {
	var m Mutex
	m.Lock()
	if m.HasWaiters() {
		t.Fatal("HasWaiters true with no waiters")
	}
	arrived := make(chan struct{})
	done := make(chan struct{})
	go func() {
		close(arrived)
		m.Lock()
		m.Unlock()
		close(done)
	}()
	<-arrived
	// Wait for the contender to take its ticket.
	for !m.HasWaiters() {
		runtime.Gosched()
	}
	m.Unlock()
	<-done
	if m.HasWaiters() {
		t.Fatal("HasWaiters true after queue drained")
	}
}

func TestFIFOOrdering(t *testing.T) {
	// Tickets are granted in arrival order: a chain of lockers that record
	// their admission sequence must observe it strictly increasing in ticket
	// order. We serialize arrivals with a handshake to pin the arrival order.
	var m Mutex
	const n = 16
	order := make([]int, 0, n)
	var mu sync.Mutex
	m.Lock() // hold so all contenders queue up
	ready := make(chan struct{})
	var wg sync.WaitGroup
	// arrivalSeq numbers contenders in ticket-acquisition order. The
	// handshake below serializes the [send → seq read → ticket take]
	// window, so the accesses are ordered by the atomic ticket counter and
	// the channel operations.
	arrivalSeq := 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready <- struct{}{} // arrival handshake, one at a time
			my := arrivalSeq
			arrivalSeq++
			m.Lock()
			mu.Lock()
			order = append(order, my)
			mu.Unlock()
			m.Unlock()
		}()
	}
	for i := 0; i < n; i++ {
		<-ready
		// Ensure the released contender has taken its ticket before the
		// next arrival: the ticket count must reach i+2 (holder + i+1
		// arrivals).
		for m.next.Load() != uint32(i+2) {
			runtime.Gosched()
		}
	}
	m.Unlock()
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("admission order %v violates FIFO at position %d", order, i)
		}
	}
}
