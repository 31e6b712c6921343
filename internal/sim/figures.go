package sim

import (
	"github.com/bravolock/bravo/internal/topo"
)

// Point is one figure sample, simulated or native: X is a thread count (a
// lock count in Figure 1), Value a simulated figure's ops/s of virtual time.
type Point struct {
	X     int
	Value float64
}

// Series maps a lock name (or configuration) to its curve.
type Series map[string][]Point

// UserSpaceThreadCounts is the paper's user-space X axis (§5, Figures 2–6).
var UserSpaceThreadCounts = []int{1, 2, 5, 10, 20, 50}

// KernelThreadCounts is the paper's kernel X axis (§6, Figure 9, Tables).
var KernelThreadCounts = []int{1, 2, 4, 8, 16, 32, 72, 108, 142}

// lockCtor builds a fresh simulated lock on a fresh machine per data point.
type lockCtor func(m *Machine) RWLock

func userSpaceLocks() map[string]lockCtor {
	return map[string]lockCtor{
		"BA":            func(m *Machine) RWLock { return NewCentral(m) },
		"BRAVO-BA":      func(m *Machine) RWLock { return NewBravo(m, NewCentral(m), NewTable(m, 4096)) },
		"pthread":       func(m *Machine) RWLock { return NewBlockingCentral(m) },
		"BRAVO-pthread": func(m *Machine) RWLock { return NewBravo(m, NewBlockingCentral(m), NewTable(m, 4096)) },
		"Per-CPU":       func(m *Machine) RWLock { return NewPerCPU(m) },
		"Cohort-RW":     func(m *Machine) RWLock { return NewCohort(m) },
	}
}

func newUserMachine() *Machine   { return NewMachine(topo.X52, DefaultCosts()) }
func newKernelMachine() *Machine { return NewMachine(topo.X54, DefaultCosts()) }

// horizonNs is the simulated measurement interval. Virtual time is cheap;
// 50ms of virtual time gives stable rates for every workload here.
const horizonNs = 50e6

// lockedLoop drives the canonical benchmark loop — acquire, critical
// section, release, non-critical section — with acquire and release as
// separate engine events so concurrent threads interleave on lock state.
type lockedLoop struct {
	l RWLock
	// decide returns the next iteration's operation: write?, critical
	// section ns, non-critical section ns.
	decide func(th *Thread) (bool, float64, float64)

	inCS  []bool
	write []bool
	ncs   []float64
}

func newLockedLoop(nthreads int, l RWLock, decide func(th *Thread) (bool, float64, float64)) *lockedLoop {
	return &lockedLoop{
		l:      l,
		decide: decide,
		inCS:   make([]bool, nthreads),
		write:  make([]bool, nthreads),
		ncs:    make([]float64, nthreads),
	}
}

func (ll *lockedLoop) body(th *Thread) bool {
	if !ll.inCS[th.ID] {
		w, cs, ncs := ll.decide(th)
		ll.write[th.ID] = w
		ll.ncs[th.ID] = ncs
		var t float64
		if w {
			t = ll.l.AcquireWrite(th, th.Clk, cs)
		} else {
			t = ll.l.AcquireRead(th, th.Clk, cs)
		}
		th.Clk = t + cs
		ll.inCS[th.ID] = true
		return false
	}
	var t float64
	if ll.write[th.ID] {
		t = ll.l.ReleaseWrite(th, th.Clk)
	} else {
		t = ll.l.ReleaseRead(th, th.Clk)
	}
	th.Clk = t + ll.ncs[th.ID]
	ll.inCS[th.ID] = false
	return true
}

// Figure1Interference reproduces §5.1: 64 threads, a pool of nlocks
// BRAVO-BA locks sharing one 4096-slot table, read-only critical sections
// of 20 RNG steps and non-critical sections of 100 steps. It returns, for
// each pool size, the throughput fraction relative to an idealized variant
// giving each lock a private table.
func Figure1Interference(poolSizes []int) []Point {
	out := make([]Point, 0, len(poolSizes))
	for _, n := range poolSizes {
		shared := interferenceRun(n, true, horizonNs)
		private := interferenceRun(n, false, horizonNs)
		out = append(out, Point{X: n, Value: shared / private})
	}
	return out
}

func interferenceRun(nlocks int, sharedTable bool, horizon float64) float64 {
	m := newUserMachine()
	var table *Table
	if sharedTable {
		table = NewTable(m, 4096)
	}
	locks := make([]RWLock, nlocks)
	for i := range locks {
		tab := table
		if tab == nil {
			tab = NewTable(m, 4096)
		}
		locks[i] = NewBravo(m, NewCentral(m), tab)
	}
	threads := NewThreads(64, 1234, nil)
	held := make([]RWLock, len(threads))
	for _, th := range threads {
		th.body = func(th *Thread) bool {
			if held[th.ID] == nil {
				l := locks[th.Rng.Intn(uint64(nlocks))]
				cs := 20 * m.Cost.WorkUnitNs
				th.Clk = l.AcquireRead(th, th.Clk, cs) + cs
				held[th.ID] = l
				return false
			}
			t := held[th.ID].ReleaseRead(th, th.Clk)
			held[th.ID] = nil
			th.Clk = m.Work(t, 100)
			return true
		}
	}
	ops := Run(threads, horizon)
	return float64(ops)
}

// Figure2Alternator reproduces §5.2: threads in a notification ring, each
// performing one read acquire/release per step; at most one reader active
// at any moment. Reported value: steps per second of virtual time.
func Figure2Alternator(threadCounts []int) Series {
	out := Series{}
	for name, ctor := range userSpaceLocks() {
		var pts []Point
		for _, tc := range threadCounts {
			m := newUserMachine()
			l := ctor(m)
			flags := m.NewLines(tc) // per-thread notification words
			// The ring is strictly sequential: simulate it directly.
			threads := NewThreads(tc, 99, nil)
			t, steps := 0.0, 0
			for t < horizonNs {
				th := threads[steps%tc]
				// One handoff: consume our notification (the spin-wait load
				// pulls the flag line our left sibling just wrote), perform
				// one read acquire/release, and notify the right sibling.
				t = m.Load(th.CPU, flags[th.ID], t)
				t = l.AcquireRead(th, t, 0)
				t = l.ReleaseRead(th, t)
				t = m.Store(th.CPU, flags[(th.ID+1)%tc], t)
				steps++
			}
			pts = append(pts, Point{X: tc, Value: float64(steps) / (horizonNs / 1e9)})
		}
		out[name] = pts
	}
	return out
}

// Figure3TestRWLock reproduces §5.3 (test_rwlock, Desnoyers et al.): one
// fixed-role writer (10-unit CS, 1000-unit NCS) and T reader threads
// (10-unit CS, no NCS). Value: aggregate ops/sec.
func Figure3TestRWLock(threadCounts []int) Series {
	out := Series{}
	for name, ctor := range userSpaceLocks() {
		var pts []Point
		for _, tc := range threadCounts {
			m := newUserMachine()
			l := ctor(m)
			threads := NewThreads(tc+1, 77, nil)
			writer := threads[tc]
			writer.CPU = m.Top.NumCPUs() - 1 // keep the writer off reader CPUs
			ll := newLockedLoop(tc+1, l, func(th *Thread) (bool, float64, float64) {
				if th.ID == tc {
					return true, 10 * m.Cost.WorkUnitNs, 1000 * m.Cost.WorkUnitNs
				}
				return false, 10 * m.Cost.WorkUnitNs, 0
			})
			for _, th := range threads {
				th.body = ll.body
			}
			ops := Run(threads, horizonNs)
			pts = append(pts, Point{X: tc, Value: float64(ops) / (horizonNs / 1e9)})
		}
		out[name] = pts
	}
	return out
}

// Figure4RWBench reproduces §5.4 (RWBench, Calciu et al.): T threads, write
// probability writeProb (0.9, 0.5, 0.1, 0.01, 0.001, 0.0001), critical
// sections of 10 mt19937 steps, non-critical sections uniform in [0, 200)
// steps. Value: aggregate top-level loops/sec.
func Figure4RWBench(threadCounts []int, writeProb float64) Series {
	out := Series{}
	// Quantize the Bernoulli trial on a 1e6 grid so small probabilities
	// (1/10000) and large ones (9/10) are both represented exactly.
	threshold := uint64(writeProb * 1e6)
	for name, ctor := range userSpaceLocks() {
		var pts []Point
		for _, tc := range threadCounts {
			m := newUserMachine()
			l := ctor(m)
			threads := NewThreads(tc, 4242, nil)
			ll := newLockedLoop(tc, l, func(th *Thread) (bool, float64, float64) {
				w := th.Rng.Next()%1e6 < threshold
				return w, 10 * m.Cost.WorkUnitNs, float64(th.Rng.Intn(200)) * m.Cost.WorkUnitNs
			})
			for _, th := range threads {
				th.body = ll.body
			}
			ops := Run(threads, horizonNs)
			pts = append(pts, Point{X: tc, Value: float64(ops) / (horizonNs / 1e9)})
		}
		out[name] = pts
	}
	return out
}

// Figure5ReadWhileWriting reproduces the §5.5 rocksdb profile: one writer
// performing in-place updates back-to-back and T readers doing Get calls
// against the single memtable GetLock. Critical sections reflect rocksdb
// lookup/update costs (≈150/250 work units).
func Figure5ReadWhileWriting(threadCounts []int) Series {
	return readMostlyServerFigure(threadCounts, 1, 150, 250)
}

// Figure6HashTable reproduces the §5.6 rocksdb hash_table_bench profile:
// one inserter and one eraser running back-to-back against T readers on a
// single lock-protected hash table (≈100/200 work-unit sections).
func Figure6HashTable(threadCounts []int) Series {
	return readMostlyServerFigure(threadCounts, 2, 100, 200)
}

func readMostlyServerFigure(threadCounts []int, writers int, readCS, writeCS float64) Series {
	out := Series{}
	for name, ctor := range userSpaceLocks() {
		var pts []Point
		for _, tc := range threadCounts {
			m := newUserMachine()
			l := ctor(m)
			threads := NewThreads(tc+writers, 5150, nil)
			for i := 0; i < writers; i++ {
				threads[tc+i].CPU = m.Top.NumCPUs() - 1 - i
			}
			ll := newLockedLoop(tc+writers, l, func(th *Thread) (bool, float64, float64) {
				if th.ID >= tc {
					return true, writeCS * m.Cost.WorkUnitNs, 0
				}
				return false, readCS * m.Cost.WorkUnitNs, 0
			})
			for _, th := range threads {
				th.body = ll.body
			}
			Run(threads, horizonNs)
			var readerOps uint64
			for _, th := range threads[:tc] {
				readerOps += th.Ops
			}
			pts = append(pts, Point{X: tc, Value: float64(readerOps) / (horizonNs / 1e9)})
		}
		out[name] = pts
	}
	return out
}

// kernelLocks are the two §6 contenders: stock rwsem (readers write the
// owner field) and BRAVO-rwsem (fast-path readers plus the §4 owner-write
// fix on the underlying semaphore).
func kernelLocks() map[string]lockCtor {
	return map[string]lockCtor{
		"stock": func(m *Machine) RWLock { return NewRWSem(m, true) },
		"BRAVO": func(m *Machine) RWLock { return NewBravo(m, NewRWSem(m, false), NewTable(m, 4096)) },
	}
}

// Figure7Locktorture reproduces §6.1 with 1 writer: T readers holding the
// rwsem ≈50ms(!) and one writer holding ≈10ms. Value: acquisitions in a 30s
// (virtual) interval, reads and writes reported separately. Long critical
// sections mask indicator contention — both kernels scale on reads — while
// BRAVO's writes drop because every write acquisition revokes against 50ms
// readers.
func Figure7Locktorture(threadCounts []int) (reads, writes Series) {
	reads, writes = Series{}, Series{}
	const interval = 30e9
	for name, ctor := range kernelLocks() {
		var rpts, wpts []Point
		for _, tc := range threadCounts {
			m := newKernelMachine()
			l := ctor(m)
			threads := NewThreads(tc+1, 3131, nil)
			w := threads[tc]
			w.CPU = m.Top.NumCPUs() - 1
			ll := newLockedLoop(tc+1, l, func(th *Thread) (bool, float64, float64) {
				if th.ID == tc {
					return true, 10e6, 0 // 10ms write CS
				}
				return false, 50e6, 0 // 50ms read CS
			})
			for _, th := range threads {
				th.body = ll.body
			}
			Run(threads, interval)
			var readOps uint64
			for _, th := range threads[:tc] {
				readOps += th.Ops
			}
			rpts = append(rpts, Point{X: tc, Value: float64(readOps)})
			wpts = append(wpts, Point{X: tc, Value: float64(w.Ops)})
		}
		reads[name] = rpts
		writes[name] = wpts
	}
	return reads, writes
}

// Figure8Locktorture reproduces §6.1 with 0 writers: (a) the original 50ms
// read CS, where both kernels scale linearly, and (b) the modified 5µs CS,
// where the stock counter saturates and BRAVO keeps scaling.
func Figure8Locktorture(threadCounts []int, readCSNanos float64) Series {
	out := Series{}
	// The paper's interval is 30s. For microsecond-scale critical sections
	// that would mean hundreds of millions of simulated events, so we
	// simulate a stationary window of at least 1000 critical sections and
	// extrapolate the 30s count.
	interval := maxf(1000*readCSNanos, 50e6)
	if interval > 30e9 {
		interval = 30e9
	}
	scale := 30e9 / interval
	for name, ctor := range kernelLocks() {
		var pts []Point
		for _, tc := range threadCounts {
			m := newKernelMachine()
			l := ctor(m)
			threads := NewThreads(tc, 888, nil)
			ll := newLockedLoop(tc, l, func(th *Thread) (bool, float64, float64) {
				return false, readCSNanos, 0
			})
			for _, th := range threads {
				th.body = ll.body
			}
			ops := Run(threads, interval)
			pts = append(pts, Point{X: tc, Value: float64(ops) * scale})
		}
		out[name] = pts
	}
	return out
}

// Figure9WillItScale reproduces §6.2. page_fault iterations mmap a 128MB
// region (write), touch every page (32768 read acquisitions plus fault
// service work), and munmap (write); mmap iterations only map and unmap.
// Each engine step is a single semaphore operation so that concurrent
// threads interleave on the counter line exactly as the kernel threads do.
// Value: mmap_sem read acquisitions/sec for the page_fault flavours, and
// map+unmap pairs/sec for the mmap flavours. The test argument selects
// "page_fault1", "page_fault2" (shared mapping: an extra shared-line write
// per fault), "mmap1" or "mmap2".
func Figure9WillItScale(threadCounts []int, test string) Series {
	out := Series{}
	const (
		pages     = 32768 // 128M / 4K
		faultWork = 900.0 // ns to service one minor fault
		mmapWork  = 2500.0
	)
	pageFault := test == "page_fault1" || test == "page_fault2"
	for name, ctor := range kernelLocks() {
		var pts []Point
		for _, tc := range threadCounts {
			m := newKernelMachine()
			l := ctor(m)
			// Fault service takes the page allocator's zone/LRU locks — the
			// second-order bottleneck the paper cites ([11]: "The LRU lock
			// and mmap_sem") that bounds BRAVO's win on page_fault to tens
			// of percent rather than orders of magnitude.
			zoneLine := m.NewLine()
			var sharedLine LineID
			if test == "page_fault2" {
				sharedLine = m.NewLine()
			}
			threads := NewThreads(tc, 246, nil)
			faultsLeft := make([]int, tc)
			inCS := make([]bool, tc)
			for _, th := range threads {
				th.body = func(th *Thread) bool {
					t := th.Clk
					switch {
					case inCS[th.ID]:
						// Complete the in-flight fault: allocator/LRU lock,
						// then the optional shared-mapping write, then
						// release mmap_sem.
						t = m.RMW(th.CPU, zoneLine, t)
						if test == "page_fault2" {
							t = m.RMW(th.CPU, sharedLine, t)
						}
						th.Clk = l.ReleaseRead(th, t)
						inCS[th.ID] = false
						faultsLeft[th.ID]--
						return true
					case pageFault && faultsLeft[th.ID] > 0:
						th.Clk = l.AcquireRead(th, t, faultWork) + faultWork
						inCS[th.ID] = true
						return false
					default:
						// Remap: munmap + mmap under write locks.
						t = l.AcquireWrite(th, t, mmapWork)
						t = l.ReleaseWrite(th, t+mmapWork)
						t = l.AcquireWrite(th, t, mmapWork)
						t = l.ReleaseWrite(th, t+mmapWork)
						if pageFault {
							faultsLeft[th.ID] = pages
						} else if test == "mmap2" {
							// mmap2 touches the first page before unmapping.
							t = l.AcquireRead(th, t, faultWork)
							t = l.ReleaseRead(th, t+faultWork)
						}
						th.Clk = t
						return !pageFault
					}
				}
			}
			ops := Run(threads, 50e6)
			pts = append(pts, Point{X: tc, Value: float64(ops) / 0.05})
		}
		out[name] = pts
	}
	return out
}
