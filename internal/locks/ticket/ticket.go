// Package ticket implements a classic FIFO ticket mutex.
//
// Ticket locks are the building block of the C-TKT-TKT cohort mutex used by
// the paper's Cohort-RW competitor [6, 20]: arrivals take a ticket with a
// fetch-and-add and wait for the grant counter to reach it, which yields
// strict FIFO admission.
package ticket

import (
	"sync/atomic"

	"github.com/bravolock/bravo/internal/spin"
)

// Mutex is a FIFO ticket lock. The zero value is unlocked.
type Mutex struct {
	next  atomic.Uint32 // next ticket to hand out
	owner atomic.Uint32 // ticket currently being served
}

// Lock acquires the mutex, admitting callers in arrival order.
func (m *Mutex) Lock() {
	t := m.next.Add(1) - 1
	if m.owner.Load() == t {
		return
	}
	var b spin.Backoff
	for m.owner.Load() != t {
		b.Once()
	}
}

// Unlock releases the mutex, serving the next queued ticket if any.
func (m *Mutex) Unlock() {
	m.owner.Add(1)
}

// HasWaiters reports whether any caller is queued behind the current owner.
// The cohort mutex uses this ("alone?" in the lock-cohorting paper) to decide
// whether to hand the global lock to a local successor.
func (m *Mutex) HasWaiters() bool {
	return m.next.Load()-m.owner.Load() > 1
}
