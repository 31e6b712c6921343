package bravo_test

import (
	"sync"
	"testing"

	bravo "github.com/bravolock/bravo"
	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/kvs"
)

// These tests exercise the public facade: everything a downstream user
// touches must work through the exported surface alone.

func TestPublicAPIBasicRoundTrip(t *testing.T) {
	substrates := map[string]func() bravo.RWLock{
		"ba":      bravo.NewBA,
		"pthread": bravo.NewPthread,
		"go-rw":   bravo.NewGoRW,
		"per-cpu": func() bravo.RWLock { return bravo.NewPerCPU(bravo.TopologyX52) },
		"cohort":  func() bravo.RWLock { return bravo.NewCohortRW(bravo.TopologyX52) },
	}
	for name, mk := range substrates {
		t.Run(name, func(t *testing.T) {
			l := bravo.New(mk(), bravo.WithTable(bravo.NewTable(64)))
			tok := l.RLock()
			l.RUnlock(tok)
			l.Lock()
			l.Unlock()
			tok = l.RLock()
			l.RUnlock(tok)
		})
	}
}

// TestPublicAPIOptionsCompose: the facade's options configure a lock
// together.
func TestPublicAPIOptionsCompose(t *testing.T) {
	t.Run("bravo", func(t *testing.T) {
		st := &bravo.Stats{}
		l := bravo.New(bravo.NewBA(),
			bravo.WithTable(bravo.NewTable2D(8, 32)),
			bravo.WithPolicy(bravo.NewInhibitPolicy(bias.DefaultInhibitN)),
			bravo.WithStats(st),
		)
		for i := 0; i < 100; i++ {
			tok := l.RLock()
			l.RUnlock(tok)
		}
		l.Lock()
		l.Unlock()
		if st.Snapshot().Reads() != 100 {
			t.Fatalf("stats lost reads: %s", st.Snapshot())
		}
	})
}

// TestNewAdaptiveKeepsTheLockItIsGiven: a bravo.Lock argument is returned
// itself — table and stats kept, adaptive policy installed — and any other
// lock is wrapped first.
func TestNewAdaptiveKeepsTheLockItIsGiven(t *testing.T) {
	tab, st := bravo.NewTable(64), &bravo.Stats{}
	in := bravo.New(bravo.NewGoRW(), bravo.WithTable(tab), bravo.WithStats(st))
	l := bravo.NewAdaptive(in)
	if l != in || l.Engine().Table() != tab || l.Adaptor() == nil {
		t.Fatalf("NewAdaptive(*Lock): same lock %v, same table %v, adaptor %v", l == in, l.Engine().Table() == tab, l.Adaptor())
	}
	l.RUnlock(l.RLock())
	l.RUnlock(l.RLock())
	if st.Snapshot().Reads() != 2 || !l.Biased() {
		t.Fatalf("stats lost reads or bias stayed off: %s", st.Snapshot())
	}
	if w := bravo.NewAdaptive(bravo.NewFair()); w.Adaptor() == nil {
		t.Fatal("NewAdaptive did not wrap a plain lock")
	}
}

// constructed keeps the locks TestConstructionAllocs builds on the heap.
var constructed *bravo.Lock

// TestConstructionAllocs: a default lock is two objects, the lock and its
// substrate — no policy object, no configuration block — and NewAdaptive
// adds exactly two to that, the configuration block and the adaptor.
func TestConstructionAllocs(t *testing.T) {
	plain := testing.AllocsPerRun(100, func() { constructed = bravo.New(bravo.NewGoRW()) })
	if plain != 2 {
		t.Errorf("bravo.New(bravo.NewGoRW()) makes %v allocations, want 2", plain)
	}
	if n := testing.AllocsPerRun(100, func() { constructed = bravo.NewAdaptive(bravo.NewGoRW()) }); n != plain+2 {
		t.Errorf("NewAdaptive(NewGoRW()) makes %v allocations, want %v: New's and a block and an adaptor", n, plain+2)
	}
}

func TestPublicAPIConcurrentSmoke(t *testing.T) {
	l := bravo.New(bravo.NewBA())
	var mu sync.Mutex
	counter := 0
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if i%16 == 0 {
					l.Lock()
					mu.Lock()
					counter++
					mu.Unlock()
					l.Unlock()
				} else {
					tok := l.RLock()
					_ = counter
					l.RUnlock(tok)
				}
			}
		}()
	}
	wg.Wait()
	// Each worker writes on i ∈ {0, 16, ..., 496}: 32 writes each.
	if counter != 4*32 {
		t.Fatalf("counter = %d, want 128", counter)
	}
}

func TestSharedTableIsProcessWide(t *testing.T) {
	a := bravo.New(bravo.NewBA())
	b := bravo.New(bravo.NewPthread())
	if a.Engine().Table() != b.Engine().Table() || a.Engine().Table() != bravo.SharedTable() {
		t.Fatal("locks do not share the default table")
	}
	if bravo.SharedTable().Size() != bias.DefaultTableSize {
		t.Fatalf("shared table size %d", bravo.SharedTable().Size())
	}
}

func TestShardedKVThroughFacade(t *testing.T) {
	if _, err := bravo.NewShardedKV(3, bravo.NewBA); err == nil {
		t.Fatal("non-power-of-two shard count accepted")
	}
	st := &bravo.Stats{}
	kv, err := bravo.NewShardedKV(4, func() bravo.RWLock {
		return bravo.New(bravo.NewBA(), bravo.WithStats(st))
	})
	if err != nil {
		t.Fatal(err)
	}
	if kv.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", kv.NumShards())
	}
	for k := uint64(0); k < 256; k++ {
		kv.Put(k, []byte{byte(k)})
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := uint64(0); i < 2000; i++ {
				k := (seed*i + i) % 256
				if i%32 == 0 {
					kv.Put(k, []byte{byte(i)})
				} else if v, ok := kv.Get(k); !ok || len(v) != 1 {
					t.Errorf("Get(%d) = %v, %v", k, v, ok)
					return
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	vals := kv.MultiGet([]uint64{1, 2, 1 << 40})
	if vals[0] == nil || vals[1] == nil || vals[2] != nil {
		t.Fatalf("MultiGet = %v", vals)
	}
	if kv.Delete(1 << 40) {
		t.Fatal("Delete of absent key reported present")
	}
	var stats kvs.ShardedStats = kv.Stats()
	var total bravo.ShardKVStats = stats.Total()
	if total.Keys != kv.Len() || total.Gets == 0 {
		t.Fatalf("stats inconsistent: %+v vs Len %d", total, kv.Len())
	}
	if got := st.Snapshot().Reads(); got == 0 {
		t.Fatal("BRAVO per-shard locks recorded no reads")
	}
	if n := len(kv.Snapshot()); n != kv.Len() {
		t.Fatalf("Snapshot has %d keys, Len is %d", n, kv.Len())
	}
}

func TestReaderHandleThroughFacade(t *testing.T) {
	l := bravo.New(bravo.NewBA(), bravo.WithTable(bravo.NewTable(64)))
	var hl bravo.HandleRWLock = l
	h := bravo.NewReader()
	tok := hl.RLockH(h) // slow; enables bias under the default policy
	hl.RUnlockH(h, tok)
	for i := 0; i < 10; i++ {
		tok := hl.RLockH(h)
		hl.RUnlockH(h, tok)
	}
	l.Lock()
	l.Unlock()
	if bravo.NewReaderWithID(7).ID() != 7 {
		t.Fatal("explicit handle identity not pinned")
	}
}

func TestShardedKVHandleReadsThroughFacade(t *testing.T) {
	kv, err := bravo.NewShardedKV(4, func() bravo.RWLock {
		return bravo.New(bravo.NewBA())
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 64; k++ {
		kv.Put(k, []byte{byte(k)})
	}
	h := bravo.NewReader()
	if v, ok := kv.GetH(h, 3); !ok || v[0] != 3 {
		t.Fatalf("GetH = %v, %v", v, ok)
	}
	buf := make([]byte, 0, 8)
	if buf, ok := kv.GetIntoH(h, 4, buf); !ok || buf[0] != 4 {
		t.Fatalf("GetIntoH = %v, %v", buf, ok)
	}
	vals := kv.MultiGetH(h, []uint64{1, 2, 1 << 40})
	if vals[0] == nil || vals[1] == nil || vals[2] != nil {
		t.Fatalf("MultiGetH = %v", vals)
	}
}

func TestTopologyHelpers(t *testing.T) {
	if bravo.TopologyX52.NumCPUs() != 72 || bravo.TopologyX54.NumCPUs() != 144 {
		t.Fatal("reference topologies wrong")
	}
}
