// vmsim: the paper's kernel story (§4, §6.2) in miniature — a page-fault
// storm against an address space whose mmap_sem is either the stock rwsem
// or the BRAVO-augmented rwsem. Page faults take mmap_sem for read; mmap
// and munmap take it for write.
//
//	go run ./examples/vmsim
package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/bravolock/bravo/internal/rwsem"
	"github.com/bravolock/bravo/internal/vm"
)

func faultStorm(as *vm.AddressSpace, workers int, pagesPerWorker int) time.Duration {
	setup := rwsem.NewTask()
	length := uint64(pagesPerWorker) * vm.PageSize
	bases := make([]uint64, workers)
	for i := range bases {
		addr, err := as.Mmap(setup, length, false)
		if err != nil {
			panic(err)
		}
		bases[i] = addr
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			task := rwsem.NewTask()
			// Touch every page: one mmap_sem read acquisition per fault,
			// like will-it-scale's page_fault1.
			if err := as.Touch(task, base, length); err != nil {
				panic(err)
			}
		}(bases[w])
	}
	wg.Wait()
	elapsed := time.Since(start)
	// Note: the munmaps below are write acquisitions and revoke reader
	// bias, so callers interested in the bias state sample it first.
	for _, b := range bases {
		if err := as.Munmap(setup, b); err != nil {
			panic(err)
		}
	}
	return elapsed
}

func main() {
	const workers = 4
	const pages = 20000

	stock := vm.NewAddressSpace(vm.StockSem{S: rwsem.New(rwsem.DefaultConfig())})
	bravo := vm.NewAddressSpace(vm.BravoSem{S: rwsem.NewBravo(rwsem.DefaultConfig())})

	ds := faultStorm(stock, workers, pages)
	db := faultStorm(bravo, workers, pages)
	// Bias was revoked by the teardown munmaps; what matters is that the
	// fault phase ran with it enabled, which the stats below imply (every
	// fault after the first paid no shared-counter update).
	sf, sm, _ := stock.Stats()
	bf, bm, _ := bravo.Stats()
	fmt.Printf("page-fault storm: %d workers × %d pages\n", workers, pages)
	fmt.Printf("  stock rwsem:  %10v  (%d faults, %d mmaps)\n", ds.Round(time.Millisecond), sf, sm)
	fmt.Printf("  BRAVO rwsem:  %10v  (%d faults, %d mmaps)\n", db.Round(time.Millisecond), bf, bm)
	fmt.Printf("  delta:        %9.1f%% (positive favours BRAVO)\n", 100*(float64(ds)-float64(db))/float64(ds))
	fmt.Println()
	fmt.Println("On this host the two are close: BRAVO's win is avoided coherence")
	fmt.Println("traffic, which needs many cores to show. The paper's Figure 9 and")
	fmt.Println("Tables 1-2: `bravobench -mode native -fig 9,t1,t2`, or Figure 9 on")
	fmt.Println("the simulated X5-4 via `bravobench -fig 9`.")
}
