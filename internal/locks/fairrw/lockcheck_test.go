package fairrw_test

import (
	"testing"

	"github.com/bravolock/bravo/internal/lockcheck"
	"github.com/bravolock/bravo/internal/locks/fairrw"
	"github.com/bravolock/bravo/internal/rwl"
)

// The shared battery, like every lock package. The FIFO-specific probes
// (arrival order, wraparound) live in fairrw_test.go.

func mk() rwl.RWLock { return new(fairrw.Lock) }

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

func TestFIFOAdmission(t *testing.T) {
	// Ticket order: a reader arriving while a writer waits queues behind it.
	lockcheck.WaitingWriterBlocksReaders(t, mk())
}
