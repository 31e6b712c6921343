package kvs

import (
	"fmt"
	"os"
	"runtime/debug"
	"syscall"
	"unsafe"

	"github.com/bravolock/bravo/internal/arch"
)

// walWindow is the log one reservation maps: about 6,500 records of 160 B.
// reserve writes its zeros from walZeros, which nothing writes to.
const walWindow = 1 << 20

var walZeros [64 << 10]byte

// place copies the sealed record b into the mapped window at the log's end,
// reserving the next window first if this one is full. An I/O error that
// surfaces as a fault on a mapped page ends appending, not the process.
// It then prefetches the window's lines the next record will occupy, sized
// by this one, so the next copy stores into warm lines.
func (w *shardWAL) place(b []byte) (err error) {
	if w.size+int64(len(b)) > w.base+int64(len(w.m)) {
		if err := w.reserve(len(b)); err != nil {
			return err
		}
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			if _, fault := r.(interface{ Addr() uintptr }); !fault {
				panic(r)
			}
			w.closed = true
			err = fmt.Errorf("kvs: fault writing the mapped log: %v", r)
		}
	}()
	at := w.size - w.base
	copy(w.m[at:], b)
	next := at + int64(len(b))
	if n := min(int64(len(b)), lookahead, int64(len(w.m))-next); n > 0 {
		arch.Prefetch(unsafe.Pointer(&w.m[next]), int(n))
	}
	return nil
}

// reserve maps at least walWindow (and n) bytes from the log end's page,
// writing their zeros first: a full disk fails here, and place's copy stores
// into written blocks, not an unwritten extent that faults on each new page.
func (w *shardWAL) reserve(n int) error {
	if err := w.trim(); err != nil {
		return err
	}
	base := w.size &^ int64(os.Getpagesize()-1)
	length := max(walWindow, w.size-base+int64(n))
	for at, end := w.size, base+length; at < end; at += int64(len(walZeros)) {
		if _, err := w.f.WriteAt(walZeros[:min(int64(len(walZeros)), end-at)], at); err != nil {
			return err
		}
	}
	m, err := syscall.Mmap(int(w.f.Fd()), base, int(length), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return err
	}
	w.m, w.base = m, base
	return nil
}

// trim unmaps the window and cuts the file back to its records.
func (w *shardWAL) trim() error {
	if w.m != nil {
		if err := syscall.Munmap(w.m); err != nil {
			return err
		}
		w.m, w.base = nil, 0
	}
	return w.f.Truncate(w.size)
}
