// Package bench is the native benchmark harness: it drives the paper's
// workloads (§5 user-space and §6 kernel) against real locks on real
// goroutines, following the paper's run protocol — fixed measurement
// intervals, fixed-role threads, and the median of several independent
// runs per data point.
//
// Native runs exercise the true implementations end to end; on small hosts
// they measure per-operation overhead rather than cross-socket scalability
// (use internal/sim for the scalability shapes). Intervals default to a
// fraction of the paper's to keep full sweeps tractable and are
// flag-configurable in the cmd wrappers.
package bench

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bravolock/bravo/internal/xrand"
)

// Point is one (x, value) sample; X is a thread count unless a workload
// documents otherwise.
type Point struct {
	X     int
	Value float64
}

// Series maps a configuration name (usually a lock) to its curve.
type Series map[string][]Point

// Config is the shared run protocol.
type Config struct {
	// Interval is the measurement interval per run (the paper uses 10s for
	// user-space figures; defaults here are smaller).
	Interval time.Duration
	// Runs is the number of independent runs per data point; the reported
	// value is the median (the paper uses 7).
	Runs int
	// Threads is the X axis.
	Threads []int
}

// Median reports the median of one metric over cfg.Runs executions of run.
func (cfg Config) Median(run func() float64) float64 {
	n := cfg.Runs
	if n < 1 {
		n = 1
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = run()
	}
	sort.Float64s(vals)
	return vals[n/2]
}

// RunWorkers launches n workers, lets them run for the interval, and
// returns the summed per-worker operation counts. Workers must poll stop.
func RunWorkers(n int, interval time.Duration, worker func(id int, stop *atomic.Bool) uint64) uint64 {
	var stop atomic.Bool
	var total atomic.Uint64
	var wg sync.WaitGroup
	var ready sync.WaitGroup
	start := make(chan struct{})
	ready.Add(n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ready.Done()
			<-start
			total.Add(worker(id, &stop))
		}(i)
	}
	ready.Wait()
	close(start)
	time.Sleep(interval)
	stop.Store(true)
	wg.Wait()
	return total.Load()
}

// workSink defeats dead-code elimination of synthetic work loops.
var workSink atomic.Uint64

// Work executes n abstract units of CPU work (the benchmarks' "advance a
// local RNG n steps" / "count down a local variable" loops).
func Work(rng *xrand.XorShift64, n int) {
	var x uint64
	for i := 0; i < n; i++ {
		x = rng.Next()
	}
	if x == 0 {
		workSink.Add(1)
	}
}

// WriteSeries renders a Series as an aligned table, one row per thread
// count, one column per lock — the same layout as the paper's figures'
// underlying data.
func WriteSeries(w io.Writer, title, xlabel, unit string, s Series) {
	names := make([]string, 0, len(s))
	for name := range s {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s (%s)\n", title, unit)
	fmt.Fprintf(w, "%-10s", xlabel)
	for _, n := range names {
		fmt.Fprintf(w, " %16s", n)
	}
	fmt.Fprintln(w)
	if len(names) == 0 {
		return
	}
	for i := range s[names[0]] {
		fmt.Fprintf(w, "%-10d", s[names[0]][i].X)
		for _, n := range names {
			fmt.Fprintf(w, " %16.1f", s[n][i].Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// WritePoints renders a single curve (e.g. Figure 1's ratio-vs-locks).
func WritePoints(w io.Writer, title, xlabel, unit string, pts []Point) {
	fmt.Fprintf(w, "# %s (%s)\n", title, unit)
	fmt.Fprintf(w, "%-10s %16s\n", xlabel, unit)
	for _, p := range pts {
		fmt.Fprintf(w, "%-10d %16.4f\n", p.X, p.Value)
	}
	fmt.Fprintln(w)
}
