package percpu

import (
	"testing"
	"unsafe"

	"github.com/bravolock/bravo/internal/arch"
	"github.com/bravolock/bravo/internal/lockcheck"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/topo"
)

var testTopo = topo.Topology{Sockets: 2, CoresPerSocket: 2, ThreadsPerCore: 2}

func mk() rwl.RWLock { return New(testTopo) }

func TestExclusion(t *testing.T) {
	lockcheck.Exclusion(t, mk, 4, 2, 1000)
}

func TestExclusionWriteHeavy(t *testing.T) {
	lockcheck.Exclusion(t, mk, 2, 3, 800)
}

func TestReadersConcurrent(t *testing.T) {
	lockcheck.ReadersConcurrent(t, mk())
}

func TestWriterExcludesReaders(t *testing.T) {
	lockcheck.WriterExcludesReaders(t, mk())
}

func TestTokenIdentifiesSubLock(t *testing.T) {
	l := New(testTopo)
	for i := 0; i < 100; i++ {
		tok := l.RLock()
		if int(tok) >= testTopo.NumCPUs() {
			t.Fatalf("token %d exceeds CPU count %d", tok, testTopo.NumCPUs())
		}
		l.RUnlock(tok)
	}
}

func TestFootprintScalesWithCPUs(t *testing.T) {
	// The paper: "Per-CPU consists of one instance of BA for each logical
	// CPU, yielding a lock size of 9216 bytes on our 72-way system" — i.e.
	// 128 bytes per CPU. Our sub-lock is padded to the sector size, so the
	// footprint must be NumCPUs × a sector multiple.
	l := New(topo.X52)
	footprint := len(l.subs) * int(unsafe.Sizeof(sub{}))
	per := footprint / topo.X52.NumCPUs()
	if per%arch.SectorSize != 0 {
		t.Errorf("per-CPU sub-lock footprint %d is not sector aligned", per)
	}
	if footprint < topo.X52.NumCPUs()*arch.SectorSize {
		t.Errorf("footprint %d smaller than one sector per CPU", footprint)
	}
}

func TestSubLockPadding(t *testing.T) {
	if unsafe.Sizeof(sub{})%arch.SectorSize != 0 {
		t.Fatalf("sub-lock size %d not a sector multiple", unsafe.Sizeof(sub{}))
	}
}

func TestInvalidTopologyFallsBack(t *testing.T) {
	l := New(topo.Topology{})
	if len(l.subs) < 1 {
		t.Fatal("invalid topology produced zero sub-locks")
	}
	tok := l.RLock()
	l.RUnlock(tok)
}
