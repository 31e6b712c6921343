// Package rwsem implements an analogue of the Linux kernel's read-write
// semaphore (rwsem), the lock the paper integrates BRAVO with in §4, plus
// that BRAVO integration.
//
// "On a high level, rwsem consists of a counter and a waiting queue
// protected by a spin-lock. The counter keeps track of the number of active
// readers, as well as encodes the presence of a writer." We reproduce that
// state machine: a fast path of one atomic on the shared counter, a
// spinlock-protected FIFO wait queue, writer optimistic spinning on the
// owner field (the spin-on-owner optimization [32]), and the owner-field
// write-by-readers behaviour whose contention §4 describes — including the
// paper's fix (readers set the reader-owned bits only when not already set).
package rwsem

import (
	"sync/atomic"

	"github.com/bravolock/bravo/internal/spin"
)

// count encoding: readers are counted in multiples of readerBias; the low
// bits carry writer presence and queue state.
const (
	writerLocked = 1 << 0
	hasWaiters   = 1 << 1
	readerShift  = 8
	readerBias   = 1 << readerShift
)

// owner-field encoding: the owning task's ID shifted left, with flag bits.
// Readers store only the readerOwned control bits (plus, in stock mode,
// their task ID — the debugging write §4 calls out as pure contention).
const (
	ownerReader = 1 << 0
	ownerShift  = 1
)

// spinOnOwnerBudget bounds writer/reader optimistic spinning; the kernel
// checks owner->on_cpu, which we approximate with a bounded polite spin.
const spinOnOwnerBudget = 64

// Config selects rwsem behaviour variants.
type Config struct {
	// SpinOnOwner enables optimistic spinning before blocking (the kernel
	// default).
	SpinOnOwner bool
	// StockOwnerWrites makes every reader write its task ID into the owner
	// field, as stock rwsem does "for debugging purposes only" (§4). With
	// it false, readers apply the paper's optimization: only the first
	// reader after a writer sets the reader-owned bits.
	StockOwnerWrites bool
}

// DefaultConfig matches the stock kernel: spinning on, stock owner writes.
func DefaultConfig() Config {
	return Config{SpinOnOwner: true, StockOwnerWrites: true}
}

// waiter is one parked task.
type waiter struct {
	next   *waiter
	wake   chan struct{}
	writer bool
}

// RWSem is a kernel-style read-write semaphore.
type RWSem struct {
	count atomic.Int64
	owner atomic.Uint64
	cfg   Config

	waitLock spinLock
	// FIFO wait queue; guarded by waitLock.
	head, tail *waiter
}

// New returns an rwsem with the given behaviour configuration.
func New(cfg Config) *RWSem {
	return &RWSem{cfg: cfg}
}

// DownRead acquires the semaphore in read (shared) mode on behalf of t.
func (s *RWSem) DownRead(t *Task) {
	c := s.count.Add(readerBias)
	if c&(writerLocked|hasWaiters) == 0 {
		s.setReaderOwner(t.ID)
		return
	}
	s.downReadSlow(t.ID)
}

func (s *RWSem) downReadSlow(task uint64) {
	// Optimistic phase: if the writer departs promptly (spin-on-owner), we
	// keep our already-registered bias and avoid the queue.
	if s.cfg.SpinOnOwner {
		var b spin.Backoff
		for i := 0; i < spinOnOwnerBudget; i++ {
			c := s.count.Load()
			if c&(writerLocked|hasWaiters) == 0 {
				s.setReaderOwner(task)
				return
			}
			if c&writerLocked != 0 && s.owner.Load()&ownerReader != 0 {
				// Owned by readers — a writer bit with reader owner means
				// transition churn; stop spinning.
				break
			}
			b.Once()
		}
	}
	s.waitLock.lock()
	c := s.count.Load()
	if c&writerLocked == 0 && s.head == nil {
		// The writer left and nobody queued: our bias stands.
		s.waitLock.unlock()
		s.setReaderOwner(task)
		return
	}
	// Retract the optimistic bias and park.
	w := &waiter{wake: make(chan struct{}, 1)}
	s.enqueueLocked(w)
	c = s.count.Add(-readerBias)
	if c>>readerShift == 0 && c&writerLocked == 0 {
		// Our phantom bias may have suppressed a wakeup; re-drive it.
		s.wakeLocked()
	}
	s.waitLock.unlock()
	<-w.wake
	s.setReaderOwner(task)
}

// UpRead releases a read acquisition.
func (s *RWSem) UpRead(*Task) {
	c := s.count.Add(-readerBias)
	if c&hasWaiters != 0 && c>>readerShift == 0 && c&writerLocked == 0 {
		s.waitLock.lock()
		s.wakeLocked()
		s.waitLock.unlock()
	}
}

// DownWrite acquires the semaphore in write (exclusive) mode on behalf of t.
func (s *RWSem) DownWrite(t *Task) {
	if s.count.CompareAndSwap(0, writerLocked) {
		s.owner.Store(t.ID << ownerShift)
		return
	}
	s.downWriteSlow(t.ID)
}

func (s *RWSem) downWriteSlow(task uint64) {
	if s.cfg.SpinOnOwner {
		var b spin.Backoff
		for i := 0; i < spinOnOwnerBudget; i++ {
			if s.count.CompareAndSwap(0, writerLocked) {
				s.owner.Store(task << ownerShift)
				return
			}
			b.Once()
		}
	}
	w := &waiter{wake: make(chan struct{}, 1), writer: true}
	s.waitLock.lock()
	// Last-chance acquisition under the wait lock.
	if s.count.CompareAndSwap(0, writerLocked) {
		s.waitLock.unlock()
		s.owner.Store(task << ownerShift)
		return
	}
	s.enqueueLocked(w)
	if c := s.count.Load(); c>>readerShift == 0 && c&writerLocked == 0 {
		// The holder released between the failed CAS and the enqueue: it saw
		// no hasWaiters and woke nobody, so re-drive the wakeup ourselves.
		s.wakeLocked()
	}
	s.waitLock.unlock()
	<-w.wake
	// The waker transferred writerLocked to us (lock handoff).
	s.owner.Store(task << ownerShift)
}

// UpWrite releases a write acquisition.
func (s *RWSem) UpWrite(*Task) {
	s.owner.Store(0)
	c := s.count.Add(-writerLocked)
	if c&hasWaiters != 0 && c>>readerShift == 0 {
		s.waitLock.lock()
		s.wakeLocked()
		s.waitLock.unlock()
	}
}

// enqueueLocked appends w and maintains the hasWaiters bit. Caller holds
// waitLock.
func (s *RWSem) enqueueLocked(w *waiter) {
	if s.tail == nil {
		s.head, s.tail = w, w
		for {
			c := s.count.Load()
			if s.count.CompareAndSwap(c, c|hasWaiters) {
				break
			}
		}
		return
	}
	s.tail.next = w
	s.tail = w
}

// dequeueLocked removes the queue head and clears hasWaiters when the queue
// drains. Caller holds waitLock.
func (s *RWSem) dequeueLocked() *waiter {
	w := s.head
	s.head = w.next
	w.next = nil
	if s.head == nil {
		s.tail = nil
		for {
			c := s.count.Load()
			if s.count.CompareAndSwap(c, c&^hasWaiters) {
				break
			}
		}
	}
	return w
}

// wakeLocked grants the semaphore to the queue front: a single writer (by
// handing off the writerLocked bit) or the maximal front group of readers
// (by granting one readerBias each). Caller holds waitLock.
func (s *RWSem) wakeLocked() {
	front := s.head
	if front == nil {
		return
	}
	if front.writer {
		for {
			c := s.count.Load()
			if c>>readerShift != 0 || c&writerLocked != 0 {
				return // still held; the releaser will re-drive the wakeup
			}
			if s.count.CompareAndSwap(c, c|writerLocked) {
				break
			}
		}
		w := s.dequeueLocked()
		w.wake <- struct{}{}
		return
	}
	// Reader grouping: admit every reader at the front of the queue.
	for s.head != nil && !s.head.writer {
		for {
			c := s.count.Load()
			if c&writerLocked != 0 {
				return // a writer slipped in; readers stay parked
			}
			if s.count.CompareAndSwap(c, c+readerBias) {
				break
			}
		}
		w := s.dequeueLocked()
		w.wake <- struct{}{}
	}
}

// setReaderOwner records reader ownership in the owner field. In stock mode
// every reader stores its task ID with the reader bit — the §4 contention.
// In optimized mode a reader writes only when the reader bit is not already
// set, so "all subsequent readers would read, but not update the owner
// field, until it is updated again by a writer".
func (s *RWSem) setReaderOwner(task uint64) {
	if s.cfg.StockOwnerWrites {
		s.owner.Store(task<<ownerShift | ownerReader)
		return
	}
	if s.owner.Load()&ownerReader == 0 {
		s.owner.Store(ownerReader)
	}
}

// WriterPresent reports whether a writer holds the semaphore. Diagnostic.
func (s *RWSem) WriterPresent() bool { return s.count.Load()&writerLocked != 0 }

// spinLock is a minimal test-and-test-and-set spinlock guarding the wait
// queue (the kernel's wait_lock).
type spinLock struct {
	v atomic.Uint32
}

func (l *spinLock) lock() {
	if l.v.CompareAndSwap(0, 1) {
		return
	}
	var b spin.Backoff
	for {
		if l.v.Load() == 0 && l.v.CompareAndSwap(0, 1) {
			return
		}
		b.Once()
	}
}

func (l *spinLock) unlock() {
	l.v.Store(0)
}
