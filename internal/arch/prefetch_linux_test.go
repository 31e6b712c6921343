package arch

import (
	"os"
	"syscall"
	"testing"
	"unsafe"
)

// TestPrefetchNeverFaults prefetches across and inside a PROT_NONE guard
// page, and an empty range at it: a prefetch is a hint, so the process must
// survive every call. On amd64 this runs PREFETCHT0; elsewhere the same
// calls run the no-op.
func TestPrefetchNeverFaults(t *testing.T) {
	page := os.Getpagesize()
	m, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(m)
	if err := syscall.Mprotect(m[page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	m[page-1] = 1
	guard := unsafe.Pointer(&m[page])
	Prefetch(unsafe.Pointer(&m[page-2*CacheLineSize]), 4*CacheLineSize) // straddling
	Prefetch(guard, page)                                               // wholly inside
	Prefetch(unsafe.Add(guard, 3), 3*CacheLineSize)                     // unaligned, inside
	Prefetch(guard, 0)
	Prefetch(guard, -1)
	if m[page-1] != 1 {
		t.Fatal("a prefetch changed the mapped page's contents")
	}
}
