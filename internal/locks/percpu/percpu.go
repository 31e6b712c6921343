// Package percpu implements the "Per-CPU" distributed reader-writer lock of
// the paper's evaluation (§5): "an array of BA locks, one for each CPU,
// where readers acquire read-permission on the sub-lock associated with
// their CPU, and writers acquire write-permission on all the sub-locks",
// inspired by the Linux kernel brlock construct [10].
//
// This is the large-footprint end of the reader-indicator design spectrum:
// on the paper's 72-CPU machine each instance is 9216 bytes. Readers scale
// perfectly; writers pay a full sweep of every sub-lock.
package percpu

import (
	"unsafe"

	"github.com/bravolock/bravo/internal/arch"
	"github.com/bravolock/bravo/internal/locks/pfq"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/self"
	"github.com/bravolock/bravo/internal/topo"
)

// sub is one per-CPU BA sub-lock, padded to a sector boundary so sub-locks
// never share a coherence unit.
type sub struct {
	l pfq.Lock
	_ [arch.SectorSize - unsafe.Sizeof(pfq.Lock{})%arch.SectorSize]byte
}

// Lock is a brlock-style per-CPU reader-writer lock.
type Lock struct {
	subs []sub
	top  topo.Topology
}

var _ rwl.RWLock = (*Lock)(nil)

// New returns a per-CPU lock sized for the given topology.
func New(t topo.Topology) *Lock {
	if !t.Valid() {
		t = topo.Host()
	}
	return &Lock{subs: make([]sub, t.NumCPUs()), top: t}
}

// RLock acquires read permission on the caller's sub-lock. The sub-lock
// index travels in the token so the release lands on the same sub-lock even
// if the goroutine migrates.
func (l *Lock) RLock() rwl.Token {
	cpu := l.top.CPUOf(self.ID())
	l.subs[cpu].l.RLock()
	return rwl.Token(cpu)
}

// RUnlock releases read permission on the sub-lock recorded in t.
func (l *Lock) RUnlock(t rwl.Token) {
	l.subs[t].l.RUnlock(0)
}

// Lock acquires write permission by sweeping every sub-lock in index order
// (a fixed order prevents writer-writer deadlock).
func (l *Lock) Lock() {
	for i := range l.subs {
		l.subs[i].l.Lock()
	}
}

// Unlock releases every sub-lock in reverse order.
func (l *Lock) Unlock() {
	for i := len(l.subs) - 1; i >= 0; i-- {
		l.subs[i].l.Unlock()
	}
}
