// Package vm simulates the slice of the Linux memory-management subsystem
// that the paper's kernel experiments stress: a per-process address space
// whose virtual memory areas (VMAs) are protected by mmap_sem — "an instance
// of rwsem that protects the access to VMA" (§6.2).
//
// Page faults acquire mmap_sem for read, look up the faulting VMA, and
// install a PTE; mmap and munmap acquire mmap_sem for write and edit the VMA
// set [8, 11]. This reproduces exactly the lock-acquisition pattern of the
// will-it-scale page_fault and mmap microbenchmarks and of Metis: read-heavy
// under faults, write-heavy under mapping churn. No real memory is mapped —
// the "page tables" are bookkeeping arrays — but every operation takes the
// same lock in the same mode for the same span of work as its kernel
// counterpart.
package vm

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/bravolock/bravo/internal/rwsem"
)

// PageSize is the simulated page size (4KiB, matching the kernel).
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Errors returned by address-space operations.
var (
	ErrBadAddress = errors.New("vm: address not mapped")
	ErrBadLength  = errors.New("vm: length must be a positive multiple of the page size")
	ErrOverlap    = errors.New("vm: mapping overlaps an existing VMA")
)

// MMapSem is the semaphore guarding an address space. The stock rwsem
// (*rwsem.RWSem) and the BRAVO-augmented one (*rwsem.Bravo) both satisfy it,
// which is how the benchmarks switch between the "stock" and "BRAVO"
// kernels.
type MMapSem interface {
	DownRead(t *rwsem.Task)
	UpRead(t *rwsem.Task)
	DownWrite(t *rwsem.Task)
	UpWrite(t *rwsem.Task)
}

// VMA is one virtual memory area: [Start, End), page-aligned, with a flat
// "page table" of present bits.
type VMA struct {
	Start, End uint64
	// Shared marks a file-backed shared mapping; faults additionally bump
	// the backing object's reference word (extra write sharing, as in
	// will-it-scale's page_fault2 flavour).
	Shared bool
	pages  []atomic.Uint32
	// backing is the shared-file reference word for Shared mappings.
	backing *atomic.Uint64
}

// AddressSpace models a process's mm_struct.
type AddressSpace struct {
	sem MMapSem
	// vmas is sorted by Start; guarded by sem.
	vmas []*VMA
	// brk is the bump pointer for fresh mappings; guarded by sem.
	brk uint64
	// sharedFile is the backing object for Shared mappings.
	sharedFile atomic.Uint64

	// Counters (lockstat-flavoured, cheap atomics).
	faults      atomic.Uint64
	mmaps       atomic.Uint64
	munmaps     atomic.Uint64
	faultErrors atomic.Uint64
}

// NewAddressSpace returns an empty address space guarded by sem.
func NewAddressSpace(sem MMapSem) *AddressSpace {
	return &AddressSpace{sem: sem, brk: 1 << 20}
}

// Stats reports operation counts: faults, mmaps, munmaps.
func (as *AddressSpace) Stats() (faults, mmaps, munmaps uint64) {
	return as.faults.Load(), as.mmaps.Load(), as.munmaps.Load()
}

// Mmap creates a length-byte mapping on behalf of t and returns its base
// address. Takes mmap_sem for write.
func (as *AddressSpace) Mmap(t *rwsem.Task, length uint64, shared bool) (uint64, error) {
	if length == 0 || length%PageSize != 0 {
		return 0, ErrBadLength
	}
	as.sem.DownWrite(t)
	addr := as.brk
	as.brk += length + PageSize // guard page between mappings
	v := &VMA{
		Start:  addr,
		End:    addr + length,
		Shared: shared,
		pages:  make([]atomic.Uint32, length>>PageShift),
	}
	if shared {
		v.backing = &as.sharedFile
	}
	// Insert keeping the slice sorted; the bump allocator appends, but
	// re-use after munmap keeps generality.
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].Start >= v.Start })
	as.vmas = append(as.vmas, nil)
	copy(as.vmas[i+1:], as.vmas[i:])
	as.vmas[i] = v
	as.sem.UpWrite(t)
	as.mmaps.Add(1)
	return addr, nil
}

// Munmap removes the mapping based at addr. Takes mmap_sem for write.
func (as *AddressSpace) Munmap(t *rwsem.Task, addr uint64) error {
	as.sem.DownWrite(t)
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].Start >= addr })
	if i == len(as.vmas) || as.vmas[i].Start != addr {
		as.sem.UpWrite(t)
		return fmt.Errorf("munmap %#x: %w", addr, ErrBadAddress)
	}
	as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
	as.sem.UpWrite(t)
	as.munmaps.Add(1)
	return nil
}

// PageFault handles a write fault at addr: it takes mmap_sem for read, walks
// the VMA set, and installs the PTE. Returns whether the fault populated a
// fresh page.
func (as *AddressSpace) PageFault(t *rwsem.Task, addr uint64) (bool, error) {
	as.sem.DownRead(t)
	v := as.findLocked(addr)
	if v == nil {
		as.sem.UpRead(t)
		as.faultErrors.Add(1)
		return false, fmt.Errorf("fault %#x: %w", addr, ErrBadAddress)
	}
	idx := (addr - v.Start) >> PageShift
	fresh := v.pages[idx].CompareAndSwap(0, 1)
	if fresh && v.Shared {
		v.backing.Add(1)
	}
	as.sem.UpRead(t)
	as.faults.Add(1)
	return fresh, nil
}

// Touch writes one word into every page of [addr, addr+length), faulting
// each page exactly as will-it-scale's page_fault workload does.
func (as *AddressSpace) Touch(t *rwsem.Task, addr, length uint64) error {
	for off := uint64(0); off < length; off += PageSize {
		if _, err := as.PageFault(t, addr+off); err != nil {
			return err
		}
	}
	return nil
}

// findLocked locates the VMA containing addr; caller holds mmap_sem.
func (as *AddressSpace) findLocked(addr uint64) *VMA {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > addr })
	if i == len(as.vmas) || as.vmas[i].Start > addr {
		return nil
	}
	return as.vmas[i]
}
