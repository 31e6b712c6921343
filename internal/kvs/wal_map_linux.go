package kvs

import (
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"syscall"
	"unsafe"

	"github.com/bravolock/bravo/internal/arch"
)

// walWindow is the log one reservation maps: about 6,500 records of 160 B.
const walWindow = 1 << 20

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
// allocating the blocks first: a full disk fails here, not in place's copy.
func (w *shardWAL) reserve(n int) error {
	if err := w.trim(); err != nil {
		return err
	}
	base := w.size &^ int64(os.Getpagesize()-1)
	length := max(walWindow, w.size-base+int64(n))
	fd := int(w.f.Fd())
	err := syscall.Fallocate(fd, 0, base, length)
	if errors.Is(err, syscall.EOPNOTSUPP) {
		// Writing the zeros allocates the blocks just the same.
		_, err = w.f.WriteAt(make([]byte, base+length-w.size), w.size)
	}
	if err != nil {
		return err
	}
	m, err := syscall.Mmap(fd, base, int(length), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
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
