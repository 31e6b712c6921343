package ptl

import (
	"testing"

	"github.com/bravolock/bravo/internal/lockcheck"
	"github.com/bravolock/bravo/internal/rwl"
)

func mk() rwl.RWLock { return New() }

func TestExclusion(t *testing.T) {
	lockcheck.Exclusion(t, mk, 4, 2, 2000)
}

func TestExclusionWriteHeavy(t *testing.T) {
	lockcheck.Exclusion(t, mk, 2, 4, 1500)
}

func TestReadersConcurrent(t *testing.T) {
	lockcheck.ReadersConcurrent(t, mk())
}

func TestWriterExcludesReaders(t *testing.T) {
	lockcheck.WriterExcludesReaders(t, mk())
}

func TestStrongReaderPreference(t *testing.T) {
	// The paper (§5): "the default pthread read-write lock implementation
	// ... provides strong reader preference, and admits indefinite writer
	// starvation". New readers must be admitted past a waiting writer.
	lockcheck.WaitingWriterStarvedByReaders(t, mk())
}

func TestWriterWakesAfterLastReader(t *testing.T) {
	l := New()
	t1 := l.RLock()
	t2 := l.RLock()
	got := make(chan struct{})
	go func() {
		l.Lock()
		close(got)
		l.Unlock()
	}()
	l.RUnlock(t1)
	select {
	case <-got:
		t.Fatal("writer admitted while one reader remained")
	default:
	}
	l.RUnlock(t2)
	lockcheck.Eventually(t, func() bool {
		select {
		case <-got:
			return true
		default:
			return false
		}
	}, "writer not admitted after last reader departed")
}
