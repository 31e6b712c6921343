package bench

import (
	"sync/atomic"
	"time"

	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/rwsem"
	"github.com/bravolock/bravo/internal/vm"
	"github.com/bravolock/bravo/internal/xrand"
)

// Kernel selects the §6 semaphore flavour: "stock" or "bravo".
type Kernel string

// Kernel flavours.
const (
	Stock Kernel = "stock"
	Bravo Kernel = "bravo"
)

// newMMapSem builds the selected semaphore behind the vm.MMapSem interface.
// Each call uses a private visible readers table so concurrent benchmark
// runs do not interfere.
func newMMapSem(k Kernel) vm.MMapSem {
	if k == Bravo {
		b := rwsem.NewBravo(rwsem.DefaultConfig())
		b.Engine().SetTable(bias.NewTable(bias.DefaultTableSize))
		return vm.BravoSem{S: b}
	}
	return vm.StockSem{S: rwsem.New(rwsem.DefaultConfig())}
}

// LocktortureResult carries the two curves of Figures 7–8.
type LocktortureResult struct {
	Reads  uint64
	Writes uint64
}

// Locktorture runs the §6.1 torture workload natively: readers hold the
// rwsem in read mode for readCS, writers for writeCS, all back-to-back for
// the interval. The paper's 50ms/10ms sections are scaled by the caller.
func Locktorture(k Kernel, readers, writers int, readCS, writeCS time.Duration, cfg Config) LocktortureResult {
	var sem vm.MMapSem = newMMapSem(k)
	var readOps, writeOps atomic.Uint64
	RunWorkers(readers+writers, cfg.Interval, func(id int, stop *atomic.Bool) uint64 {
		task := rwsem.NewTask()
		rng := xrand.NewXorShift64(uint64(id) + 13)
		if id >= readers { // writer
			for !stop.Load() {
				sem.DownWrite(task)
				spinFor(writeCS, rng)
				sem.UpWrite(task)
				writeOps.Add(1)
			}
			return 0
		}
		for !stop.Load() {
			sem.DownRead(task)
			spinFor(readCS, rng)
			sem.UpRead(task)
			readOps.Add(1)
		}
		return 0
	})
	return LocktortureResult{Reads: readOps.Load(), Writes: writeOps.Load()}
}

// spinFor burns CPU for roughly d (critical sections in locktorture hold
// the lock actively).
func spinFor(d time.Duration, rng *xrand.XorShift64) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		Work(rng, 32)
	}
}

// WillItScale runs the §6.2 microbenchmarks natively over the simulated mm.
// test is one of page_fault1, page_fault2, mmap1, mmap2; all threads share
// one address space (the _threads variants). Returns iterations per second:
// page faults for the fault flavours, map+unmap pairs for the mmap ones.
//
// chunk is the mapping size; cmd/bravobench's Figure 9 passes the paper's
// 128MB (32768 pages), tests scale it down for quick runs.
func WillItScale(k Kernel, test string, threads int, chunk uint64, cfg Config) float64 {
	return cfg.Median(func() float64 {
		as := vm.NewAddressSpace(newMMapSem(k))
		total := RunWorkers(threads, cfg.Interval, func(id int, stop *atomic.Bool) uint64 {
			task := rwsem.NewTask()
			var ops uint64
			for !stop.Load() {
				addr, err := as.Mmap(task, chunk, test == "page_fault2")
				if err != nil {
					panic(err)
				}
				switch test {
				case "page_fault1", "page_fault2":
					for off := uint64(0); off < chunk && !stop.Load(); off += vm.PageSize {
						if _, err := as.PageFault(task, addr+off); err != nil {
							panic(err)
						}
						ops++
					}
				case "mmap2":
					if _, err := as.PageFault(task, addr); err != nil {
						panic(err)
					}
					ops++
				default: // mmap1
					ops++
				}
				if err := as.Munmap(task, addr); err != nil {
					panic(err)
				}
			}
			return ops
		})
		return float64(total) / cfg.Interval.Seconds()
	})
}
