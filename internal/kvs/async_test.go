package kvs

import (
	"sync"
	"testing"

	"github.com/bravolock/bravo/internal/xrand"
)

func TestPutAsyncInvisibleUntilFlush(t *testing.T) {
	s, _ := NewSharded(4, mkStd)
	s.PutAsync(1, EncodeValue(1))
	if _, ok := s.Get(1); ok {
		t.Fatal("queued async write visible before flush")
	}
	if got := s.Flush(); got != 1 {
		t.Fatalf("Flush applied %d writes, want 1", got)
	}
	v, ok := s.Get(1)
	if !ok {
		t.Fatal("Get missed an async write after Flush")
	}
	if d, _ := DecodeValue(v); d != 1 {
		t.Fatalf("Get = %d, want 1", d)
	}
	if got := s.Flush(); got != 0 {
		t.Fatalf("second Flush applied %d writes, want 0", got)
	}
	total := s.Stats().Total()
	if total.AsyncPuts != 1 || total.Puts != 1 {
		t.Fatalf("AsyncPuts = %d Puts = %d, want 1/1", total.AsyncPuts, total.Puts)
	}
}

func TestDiscardDropsQueuedWrites(t *testing.T) {
	s, _ := NewSharded(4, mkStd)
	for k := uint64(0); k < 8; k++ {
		s.PutAsync(k, EncodeValue(k))
	}
	s.Discard()
	if got := s.Flush(); got != 0 {
		t.Fatalf("Flush after Discard applied %d writes, want 0", got)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after Discard, want 0", s.Len())
	}
}

func TestPutAsyncThresholdAutoFlush(t *testing.T) {
	s, _ := NewSharded(1, mkStd) // one shard: a deterministic queue
	s.SetAsyncBatch(4)
	for k := uint64(0); k < 3; k++ {
		s.PutAsync(k, EncodeValue(k))
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d below the threshold, want 0", s.Len())
	}
	s.PutAsync(3, EncodeValue(3)) // fourth write fills the batch
	if s.Len() != 4 {
		t.Fatalf("Len = %d after the threshold write, want 4", s.Len())
	}
	total := s.Stats().Total()
	if total.WriteBatches != 1 || total.WriteBatchKeys != 4 {
		t.Fatalf("WriteBatches = %d keys = %d, want 1/4", total.WriteBatches, total.WriteBatchKeys)
	}
}

func TestPutAsyncOrderPreserved(t *testing.T) {
	s, _ := NewSharded(1, mkStd)
	// Same key queued twice in one batch: the later write must win.
	s.PutAsync(7, EncodeValue(1))
	s.PutAsync(7, EncodeValue(2))
	s.Flush()
	v, _ := s.Get(7)
	if d, _ := DecodeValue(v); d != 2 {
		t.Fatalf("flushed value = %d, want the later write 2", d)
	}
	// Across batches: a drain between the two writes must not let the
	// first batch overwrite the second.
	s.SetAsyncBatch(1) // every PutAsync drains inline
	s.PutAsync(8, EncodeValue(10))
	s.PutAsync(8, EncodeValue(20))
	s.Flush()
	v, _ = s.Get(8)
	if d, _ := DecodeValue(v); d != 20 {
		t.Fatalf("cross-batch value = %d, want 20", d)
	}
}

func TestPutAsyncCopiesValueAtEnqueue(t *testing.T) {
	s, _ := NewSharded(2, mkStd)
	buf := EncodeValue(1)
	s.PutAsync(1, buf)
	copy(buf, EncodeValue(99)) // caller reuses its buffer before the flush
	s.Flush()
	v, _ := s.Get(1)
	if d, _ := DecodeValue(v); d != 1 {
		t.Fatalf("flushed value = %d, want the enqueue-time copy 1", d)
	}
}

// TestPutAsyncConcurrent storms the queue from many writers with readers
// and flushes racing; under -race this certifies the queue's locking.
func TestPutAsyncConcurrent(t *testing.T) {
	s, _ := NewSharded(4, mkBravo)
	s.SetAsyncBatch(8)
	const keys = 128
	iters := 2000
	if testing.Short() {
		iters = 200
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.NewXorShift64(seed)
			for i := 0; i < iters; i++ {
				k := rng.Intn(keys)
				switch rng.Intn(8) {
				case 0:
					s.Flush()
				case 1, 2:
					s.Get(k)
				default:
					s.PutAsync(k, EncodeValue(rng.Next()))
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	s.Flush()
	total := s.Stats().Total()
	if total.Puts != total.AsyncPuts {
		t.Fatalf("applied %d of %d queued writes", total.Puts, total.AsyncPuts)
	}
	if s.Len() > keys {
		t.Fatalf("Len = %d, exceeds keyspace %d", s.Len(), keys)
	}
}
