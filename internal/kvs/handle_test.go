package kvs

import (
	"sync"
	"testing"

	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/locks/pfq"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/rwl"
)

// newBravoSharded returns a sharded engine whose shards are BRAVO locks on
// a private table with aggressive biasing and shared stats.
func newBravoSharded(t *testing.T, shards int) (*Sharded, *bias.Stats, *bias.Table) {
	t.Helper()
	tab := bias.NewTable(bias.DefaultTableSize)
	st := &bias.Stats{}
	s, err := NewSharded(shards, func() rwl.RWLock {
		return core.New(new(pfq.Lock), core.WithTable(tab),
			core.WithPolicy(bias.AlwaysPolicy{}), core.WithStats(st))
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, st, tab
}

func TestShardedHandleReadsRoundTrip(t *testing.T) {
	s, st, tab := newBravoSharded(t, 8)
	// This test measures the BRAVO handle fast path itself, so reads must
	// actually reach the lock — disable the optimistic seqlock path that
	// would otherwise serve them without any acquisition at all.
	s.SetSeqReadAttempts(0)
	if !s.HandleCapable() {
		t.Fatal("BRAVO shards not handle-capable")
	}
	for k := uint64(0); k < 512; k++ {
		s.Put(k, []byte{byte(k)})
	}
	h := rwl.NewReader()
	// Warm: first touch of each shard goes slow and enables bias.
	for k := uint64(0); k < 512; k++ {
		if v, ok := s.GetH(h, k); !ok || len(v) != 1 || v[0] != byte(k) {
			t.Fatalf("GetH(%d) = %v, %v", k, v, ok)
		}
	}
	before := st.Snapshot()
	buf := make([]byte, 0, 8)
	for k := uint64(0); k < 512; k++ {
		var ok bool
		buf, ok = s.GetIntoH(h, k, buf)
		if !ok || buf[0] != byte(k) {
			t.Fatalf("GetIntoH(%d) = %v, %v", k, buf, ok)
		}
	}
	after := st.Snapshot()
	if fast := after.FastRead - before.FastRead; fast < 500 {
		t.Fatalf("handle reads mostly slow: %d/512 fast (%s)", fast, after)
	}
	if tab.Occupancy() != 0 {
		t.Fatal("table dirty after balanced handle reads")
	}
}

func TestShardedMultiGetHSpansShards(t *testing.T) {
	s, _, tab := newBravoSharded(t, 8)
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i)
		s.Put(uint64(i), []byte{byte(i)})
	}
	h := rwl.NewReader()
	s.MultiGetH(h, keys) // warm every shard
	vals := s.MultiGetH(h, append(keys, 1<<40))
	for i := range keys {
		if vals[i] == nil || vals[i][0] != byte(i) {
			t.Fatalf("MultiGetH[%d] = %v", i, vals[i])
		}
	}
	if vals[len(keys)] != nil {
		t.Fatal("absent key yielded a value")
	}
	if tab.Occupancy() != 0 {
		t.Fatal("table dirty after MultiGetH")
	}
}

func TestShardedHandleFallsBackWithoutSupport(t *testing.T) {
	// Shards on plain sync.RWMutex adapters: handle reads must degrade to
	// the anonymous path, not fail.
	s, err := NewSharded(4, func() rwl.RWLock { return new(stdrw.Lock) })
	if err != nil {
		t.Fatal(err)
	}
	if s.HandleCapable() {
		t.Fatal("stdrw shards claim handle support")
	}
	s.Put(1, []byte("x"))
	h := rwl.NewReader()
	if v, ok := s.GetH(h, 1); !ok || string(v) != "x" {
		t.Fatalf("GetH fallback = %q, %v", v, ok)
	}
	if vals := s.MultiGetH(h, []uint64{1}); vals[0] == nil {
		t.Fatal("MultiGetH fallback failed")
	}
}

// TestShardedHandleConcurrentMixedUse runs six harness drivers — handle and
// anonymous reads interleaved with every write — and demands every reader
// slot released at the end.
func TestShardedHandleConcurrentMixedUse(t *testing.T) {
	s, _, tab := newBravoSharded(t, 4)
	var wg sync.WaitGroup
	for w := uint64(1); w <= 6; w++ {
		d := newDriver(t, s, w, 0, 128, false, readOps, writeOps)
		wg.Add(1)
		go func() { defer wg.Done(); d.run(3000) }()
	}
	wg.Wait()
	if tab.Occupancy() != 0 {
		t.Fatal("table dirty after mixed storm")
	}
}
