package stdrw

import (
	"testing"

	"github.com/bravolock/bravo/internal/lockcheck"
	"github.com/bravolock/bravo/internal/rwl"
)

func mk() rwl.RWLock { return new(Lock) }

func TestExclusion(t *testing.T) {
	lockcheck.Exclusion(t, mk, 4, 2, 2000)
}

func TestReadersConcurrent(t *testing.T) {
	lockcheck.ReadersConcurrent(t, mk())
}

func TestWriterExcludesReaders(t *testing.T) {
	lockcheck.WriterExcludesReaders(t, mk())
}
