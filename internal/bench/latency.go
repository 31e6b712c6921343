package bench

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bravolock/bravo/internal/clock"
)

// readLatencyMaxSamples bounds what one ReadLatency reader records (8 MB). A
// reader records ≈ 6 samples per µs, so the callers' 40–50 ms intervals stay
// well under it.
const readLatencyMaxSamples = 1 << 20

// Latencies is a sorted set of exact-nanosecond latency samples.
type Latencies []int64

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100): one of
// the recorded samples, or 0 when there are none.
func (s Latencies) Percentile(p float64) int64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// ReadLatency measures the distribution of read-acquisition latency for a
// lock under a periodic writer — the experiment behind the §7 claim that
// letting readers divert through the slow path during revocation "reduces
// variance for the latency of read operations". Compare bravo-ba against
// bravo-ba-revmu: the former's readers stall behind whole revocation scans,
// fattening the tail.
func ReadLatency(lockName string, readers int, writePeriod time.Duration, cfg Config) Latencies {
	return readLatency(lockName, readers, writePeriod, cfg, readLatencyMaxSamples)
}

// readLatency takes the per-reader sample bound as a parameter so that a
// test can fill it.
func readLatency(lockName string, readers int, writePeriod time.Duration, cfg Config, maxSamples int) Latencies {
	l := mustLock(lockName)
	var out Latencies
	var mu sync.Mutex
	var wg sync.WaitGroup
	var stop atomic.Bool
	wg.Add(1)
	go func() { // periodic writer forces revocations
		defer wg.Done()
		for !stop.Load() {
			l.Lock()
			l.Unlock()
			time.Sleep(writePeriod)
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Sized before the first timed read; a full buffer stops
			// recording, so the measured loop never grows it.
			samples := make([]int64, 0, maxSamples)
			for !stop.Load() {
				start := clock.Nanos()
				tok := l.RLock()
				d := clock.Nanos() - start
				l.RUnlock(tok)
				if len(samples) < cap(samples) {
					samples = append(samples, d)
				}
			}
			mu.Lock()
			out = append(out, samples...)
			mu.Unlock()
		}()
	}
	time.Sleep(cfg.Interval)
	stop.Store(true)
	wg.Wait()
	slices.Sort(out)
	return out
}
