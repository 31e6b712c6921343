// kvcache: a read-mostly in-memory KV cache — the workload class BRAVO
// targets (§1: databases, file systems, key-value stores), run on the
// repo's sharded engine. Sweeps the shard count for a plain BA substrate
// and its BRAVO form under identical load and prints throughput plus the
// BRAVO path statistics, showing the three scaling levers compose:
// striping spreads writers, reader bias removes the per-shard reader
// bottleneck, and write combining (the writer refreshes the cache in
// MultiPut batches, one lock acquisition — one revocation — per shard
// group) keeps the writer from constantly tearing the bias down. Readers
// pin handles, as kvserv pins one per connection.
//
//	go run ./examples/kvcache
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	bravo "github.com/bravolock/bravo"
)

const (
	keys     = 4096
	readers  = 4
	interval = 200 * time.Millisecond
)

func newKV(shards int, mk func() bravo.RWLock) *bravo.ShardedKV {
	kv, err := bravo.NewShardedKV(shards, mk)
	if err != nil {
		panic(err)
	}
	for k := uint64(0); k < keys; k++ {
		kv.Put(k, []byte{byte(k), byte(k >> 8)})
	}
	return kv
}

// drive runs 1 sparse batching writer + handle-pinned readers for the
// interval; returns reader ops.
func drive(kv *bravo.ShardedKV, d time.Duration) uint64 {
	var stop atomic.Bool
	var ops atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // sparse writer: a 16-key combined refresh per ~1.6ms
		defer wg.Done()
		const batch = 16
		bkeys := make([]uint64, batch)
		bvals := make([][]byte, batch)
		for i := uint64(0); !stop.Load(); i += batch {
			for j := range bkeys {
				bkeys[j] = (i + uint64(j)) % keys
				bvals[j] = []byte{byte(i + uint64(j))}
			}
			kv.MultiPut(bkeys, bvals) // one acquisition per shard group
			time.Sleep(batch * 100 * time.Microsecond)
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			h := bravo.NewReader() // one pinned identity per worker
			var n uint64
			k := seed
			buf := make([]byte, 0, 8)
			for !stop.Load() {
				k = k*2654435761 + 1
				buf, _ = kv.GetIntoH(h, k%keys, buf)
				n++
			}
			ops.Add(n)
		}(uint64(r) + 1)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	return ops.Load()
}

func main() {
	fmt.Printf("sharded KV cache, %d keys, %d readers + 1 sparse writer, %v per point:\n\n",
		keys, readers, interval)
	fmt.Printf("%8s %14s %14s %8s %8s\n", "shards", "BA reads", "BRAVO-BA", "ratio", "fast%")
	for _, shards := range []int{1, 4, 16} {
		ba := drive(newKV(shards, bravo.NewBA), interval)

		stats := &bravo.Stats{}
		kv := newKV(shards, func() bravo.RWLock {
			return bravo.New(bravo.NewBA(), bravo.WithStats(stats))
		})
		bb := drive(kv, interval)
		snap := stats.Snapshot()

		fmt.Printf("%8d %14d %14d %7.2fx %7.1f%%\n",
			shards, ba, bb, float64(bb)/float64(ba), 100*snap.FastFraction())
		total := kv.Stats().Total()
		fmt.Printf("%8s   gets=%d hits=%d puts=%d in-place=%d\n",
			"", total.Gets, total.GetHits, total.Puts, total.PutsInPlace)
	}
	fmt.Println()
	fmt.Println("All BRAVO shard locks share one 32KB visible-readers table, so the")
	fmt.Println("read fast path stays one CAS no matter how many shards exist. On a")
	fmt.Println("many-core NUMA machine the gaps widen with reader count; the engine")
	fmt.Println("is measured end to end by `bash benchmark/run.sh --workload engine-read`.")
}
