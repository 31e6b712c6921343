package kvs

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/locks/pfq"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/xrand"
)

func baFactory() rwl.RWLock { return new(pfq.Lock) }

func bravoFactory() rwl.RWLock {
	return core.New(new(pfq.Lock), core.WithTable(bias.NewTable(bias.DefaultTableSize)))
}

func TestMemtableBasicOps(t *testing.T) {
	for _, mk := range []rwl.Factory{baFactory, bravoFactory} {
		m := NewMemtable(mk)
		if _, ok := m.GetInto(1, nil); ok {
			t.Fatal("phantom key")
		}
		m.Put(1, EncodeValue(42))
		v, ok := m.GetInto(1, nil)
		if !ok {
			t.Fatal("key lost")
		}
		if !bytes.Equal(v, EncodeValue(42)) {
			t.Fatalf("value = %x, want 42", v)
		}
		// In-place update must not change length accounting.
		m.Put(1, EncodeValue(43))
		if m.idx.live != 1 {
			t.Fatalf("live keys = %d, want 1", m.idx.live)
		}
		v, _ = m.GetInto(1, nil)
		if !bytes.Equal(v, EncodeValue(43)) {
			t.Fatalf("in-place update lost: %x", v)
		}
	}
}

func TestMemtableReadWhileWriting(t *testing.T) {
	// A miniature of the paper's readwhilewriting run: one in-place writer,
	// several readers; readers must always observe a whole value. Values of
	// one to four words go into cells sized for four, so every write is in
	// place and a torn length shows too. The readers are bounded by an op
	// count, as the harness's are, and the writer runs until they finish.
	m := NewMemtable(bravoFactory)
	const keys, reads = 8, 200000
	for k := uint64(0); k < keys; k++ {
		m.Put(k, stormValue(k, 3))
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		writer := xrand.NewXorShift64(99)
		for i := uint64(4); !done.Load(); i++ {
			k := writer.Intn(keys)
			m.Put(k, stormValue(k, i))
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.NewXorShift64(seed)
			for i := 0; i < reads; i++ {
				k := rng.Intn(keys)
				if v, ok := m.GetInto(k, nil); !ok || stormCheck(k, v) != nil {
					t.Errorf("key %d: missing or torn value %x", k, v)
					return
				}
			}
		}(uint64(r + 1))
	}
	wg.Wait()
	done.Store(true)
	<-wrote
	if m.idx.live != keys {
		t.Fatalf("live keys = %d, want %d", m.idx.live, keys)
	}
}

func TestHashCacheBasicOps(t *testing.T) {
	for _, mk := range []rwl.Factory{baFactory, bravoFactory} {
		c := NewHashCache(mk)
		c.Populate(100, 32)
		if len(c.data) != 100 {
			t.Fatalf("entries = %d, want 100", len(c.data))
		}
		e, ok := c.Lookup(50)
		if !ok || e.Key != 50 || len(e.Data) != 32 {
			t.Fatalf("lookup(50) = %v, %v", e, ok)
		}
		if !c.Erase(50) {
			t.Fatal("erase of present key failed")
		}
		if c.Erase(50) {
			t.Fatal("erase of absent key succeeded")
		}
		if _, ok := c.Lookup(50); ok {
			t.Fatal("erased key still present")
		}
		c.Insert(&CacheEntry{Key: 1000})
		if _, ok := c.Lookup(1000); !ok {
			t.Fatal("inserted key absent")
		}
	}
}

func TestHashCacheConcurrentMix(t *testing.T) {
	// The hash_table_bench shape: one inserter, one eraser, several readers.
	c := NewHashCache(bravoFactory)
	c.Populate(256, 16)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rng := xrand.NewXorShift64(7)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				c.Insert(&CacheEntry{Key: rng.Intn(1024), Data: nil})
			}
		}
	}()
	go func() {
		defer wg.Done()
		rng := xrand.NewXorShift64(8)
		for {
			select {
			case <-stop:
				return
			default:
				c.Erase(rng.Intn(1024))
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed uint64) {
			defer readers.Done()
			rng := xrand.NewXorShift64(seed)
			for i := 0; i < 5000; i++ {
				c.Lookup(rng.Intn(1024))
			}
		}(uint64(100 + r))
	}
	// Readers decide the duration; then stop the mutator threads.
	readers.Wait()
	close(stop)
	wg.Wait()
}
