package rwsem

import (
	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/self"
)

// maxHeld bounds the number of BRAVO-rwsem read acquisitions a task can hold
// simultaneously on the fast path — the capacity of the task's reader
// handle. Kernel tasks rarely hold more than one or two rwsems in read mode
// (mmap_sem dominates); excess acquisitions simply divert to the slow path.
const maxHeld = bias.ReaderSlots

// Task models the kernel's `current` task struct as far as rwsem is
// concerned: a stable identity (the task-struct pointer the paper hashes)
// plus a reader handle carrying the per-task record of fast-path read
// acquisitions and the per-semaphore slot cache. The record preserves the
// paper's same-task release assumption (§4) and resolves the hash-collision
// ambiguity a bare recomputed-slot check would have — the same role the
// POSIX per-thread held-lock lists play in §3; the cache means a task
// re-reading the same semaphore pays one CAS, not a rehash.
//
// A Task is confined to one goroutine; its methods are not safe for
// concurrent use.
type Task struct {
	// ID is the task identity hashed with the semaphore identity to choose
	// a visible-readers-table slot, and the owner an rwsem records.
	ID uint64
	// r is the task's reader handle (held-slot record + slot cache).
	r bias.Reader
}

// NewTask returns a task with a fresh stable identity.
func NewTask() *Task {
	return NewTaskWithID(self.NextExplicitID())
}

// NewTaskWithID returns a task with an explicit identity, for callers that
// need the (task, semaphore) → slot mapping to be reproducible
// (benchmark harnesses, collision tests).
func NewTaskWithID(id uint64) *Task {
	return &Task{ID: id, r: bias.MakeReader(id)}
}
