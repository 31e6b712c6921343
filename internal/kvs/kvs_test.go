package kvs

import (
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

func TestMemtableValidation(t *testing.T) {
	if _, err := NewMemtable(0, baFactory); err == nil {
		t.Fatal("zero stripes accepted")
	}
	if _, err := NewMemtable(3, baFactory); err == nil {
		t.Fatal("non-power-of-two stripes accepted")
	}
}

func TestMemtableBasicOps(t *testing.T) {
	for _, mk := range []rwl.Factory{baFactory, bravoFactory} {
		m, err := NewMemtable(1, mk)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := m.Get(1); ok {
			t.Fatal("phantom key")
		}
		m.Put(1, EncodeValue(42))
		v, ok := m.Get(1)
		if !ok {
			t.Fatal("key lost")
		}
		if d, _ := DecodeValue(v); d != 42 {
			t.Fatalf("value = %d, want 42", d)
		}
		// In-place update must not change length accounting.
		m.Put(1, EncodeValue(43))
		if m.Len() != 1 {
			t.Fatalf("Len = %d, want 1", m.Len())
		}
		v, _ = m.Get(1)
		if d, _ := DecodeValue(v); d != 43 {
			t.Fatalf("in-place update lost: %d", d)
		}
	}
}

func TestDecodeValueRejectsBadLength(t *testing.T) {
	if _, ok := DecodeValue([]byte{1, 2, 3}); ok {
		t.Fatal("short value decoded")
	}
}

func TestMemtableReadWhileWriting(t *testing.T) {
	// A miniature of the paper's readwhilewriting run: one in-place writer,
	// several readers; readers must always observe a complete 8-byte value.
	m, _ := NewMemtable(1, bravoFactory)
	const keys = 64
	for k := uint64(0); k < keys; k++ {
		m.Put(k, EncodeValue(0))
	}
	stop := make(chan struct{})
	var torn atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.NewXorShift64(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, ok := m.Get(rng.Intn(keys))
				if !ok {
					torn.Add(1)
					return
				}
				if _, ok := DecodeValue(v); !ok {
					torn.Add(1)
					return
				}
			}
		}(uint64(r + 1))
	}
	writer := xrand.NewXorShift64(99)
	for i := 0; i < 20000; i++ {
		m.Put(writer.Intn(keys), EncodeValue(uint64(i)))
	}
	close(stop)
	wg.Wait()
	if torn.Load() != 0 {
		t.Fatal("readers observed missing or torn values")
	}
	if m.Len() != keys {
		t.Fatalf("Len = %d, want %d", m.Len(), keys)
	}
}

func TestMemtableStriping(t *testing.T) {
	m, _ := NewMemtable(8, baFactory)
	for k := uint64(0); k < 1000; k++ {
		m.Put(k, EncodeValue(k))
	}
	if m.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", m.Len())
	}
	for k := uint64(0); k < 1000; k++ {
		v, ok := m.Get(k)
		if !ok {
			t.Fatalf("key %d lost", k)
		}
		if d, _ := DecodeValue(v); d != k {
			t.Fatalf("key %d holds %d", k, d)
		}
	}
}

func TestHashCacheBasicOps(t *testing.T) {
	for _, mk := range []rwl.Factory{baFactory, bravoFactory} {
		c := NewHashCache(mk)
		c.Populate(100, 32)
		if c.Len() != 100 {
			t.Fatalf("Len = %d, want 100", c.Len())
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
