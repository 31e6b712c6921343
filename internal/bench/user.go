package bench

import (
	"sync/atomic"

	"github.com/bravolock/bravo/internal/arch"
	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/clock"
	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/locks/pfq"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/sim"
	"github.com/bravolock/bravo/internal/spin"
	"github.com/bravolock/bravo/internal/xrand"
)

// mustLock instantiates a registered lock or panics (harness wiring error).
func mustLock(name string) rwl.RWLock {
	l, err := rwl.New(name)
	if err != nil {
		panic(err)
	}
	return l
}

// Alternator runs the §5.2 alternator for one lock: threads in a logical
// ring, notification by store, one read acquire/release per step, no
// concurrency among readers. Returns total steps completed.
func Alternator(lockName string, threads int, cfg Config) float64 {
	return cfg.Median(func() float64 {
		l := mustLock(lockName)
		// Padded per-thread mailboxes: turn[i] is bumped by i's left sibling.
		type mailbox struct {
			turn atomic.Uint64
			_    arch.SectorPad
		}
		boxes := make([]mailbox, threads)
		boxes[0].turn.Store(1) // kick the ring: thread 0 holds the baton
		var stopped atomic.Bool
		total := RunWorkers(threads, cfg.Interval, func(id int, stop *atomic.Bool) uint64 {
			var steps uint64
			var b spin.Backoff
			want := uint64(1)
			for !stop.Load() {
				// Wait for our notification.
				for boxes[id].turn.Load() < want {
					if stop.Load() || stopped.Load() {
						return steps
					}
					b.Once()
				}
				b.Reset()
				want++
				tok := l.RLock()
				l.RUnlock(tok)
				boxes[(id+1)%threads].turn.Add(1)
				steps++
			}
			stopped.Store(true)
			return steps
		})
		return float64(total)
	})
}

// TestRWLock runs the §5.3 test_rwlock workload: one fixed-role writer
// (10-unit CS, 1000-unit NCS) plus T fixed-role readers (10-unit CS).
// Returns aggregate iterations completed.
func TestRWLock(lockName string, readers int, cfg Config) float64 {
	return cfg.Median(func() float64 {
		l := mustLock(lockName)
		total := RunWorkers(readers+1, cfg.Interval, func(id int, stop *atomic.Bool) uint64 {
			rng := xrand.NewXorShift64(uint64(id) + 7)
			var ops uint64
			writer := id == readers
			for !stop.Load() {
				if writer {
					l.Lock()
					Work(rng, 10)
					l.Unlock()
					Work(rng, 1000)
				} else {
					tok := l.RLock()
					Work(rng, 10)
					l.RUnlock(tok)
				}
				ops++
			}
			return ops
		})
		return float64(total)
	})
}

// RWBench runs the §5.4 RWBench workload: each thread writes with
// probability writeProb (the paper sweeps 9/10 … 1/10000), critical
// sections are 10 steps of a per-thread mt19937, non-critical sections are
// uniform in [0, 200) steps. Returns aggregate top-level loops completed.
func RWBench(lockName string, threads int, writeProb float64, cfg Config) float64 {
	threshold := uint64(writeProb * 1e6)
	return cfg.Median(func() float64 {
		l := mustLock(lockName)
		total := RunWorkers(threads, cfg.Interval, func(id int, stop *atomic.Bool) uint64 {
			rng := xrand.NewXorShift64(uint64(id)*2654435761 + 1)
			mt := xrand.NewMT19937(uint32(id) + 5489)
			var ops uint64
			for !stop.Load() {
				if rng.Next()%1e6 < threshold {
					l.Lock()
					mt.Step(10)
					l.Unlock()
				} else {
					tok := l.RLock()
					mt.Step(10)
					l.RUnlock(tok)
				}
				Work(rng, int(rng.Intn(200)))
				ops++
			}
			return ops
		})
		return float64(total)
	})
}

// Interference runs the §5.1 sensitivity experiment natively for one pool
// size: 64 threads picking read locks from a pool of nlocks BRAVO-BA locks,
// 20-step critical sections, 100-step non-critical sections. It returns
// shared-table throughput divided by private-table throughput.
func Interference(nlocks, threads int, cfg Config) float64 {
	run := func(private bool) float64 {
		return cfg.Median(func() float64 {
			shared := bias.NewTable(bias.DefaultTableSize)
			locks := make([]*core.Lock, nlocks)
			for i := range locks {
				tab := shared
				if private {
					tab = bias.NewTable(bias.DefaultTableSize)
				}
				locks[i] = core.New(new(pfq.Lock), core.WithTable(tab))
			}
			total := RunWorkers(threads, cfg.Interval, func(id int, stop *atomic.Bool) uint64 {
				rng := xrand.NewXorShift64(uint64(id) + 31)
				var ops uint64
				for !stop.Load() {
					l := locks[rng.Intn(uint64(nlocks))]
					tok := l.RLock()
					Work(rng, 20)
					l.RUnlock(tok)
					Work(rng, 100)
					ops++
				}
				return ops
			})
			return float64(total)
		})
	}
	return run(false) / run(true)
}

// SweepLocks evaluates fn for each lock and thread count, assembling the
// figure's Series.
func SweepLocks(locks []string, cfg Config, fn func(lockName string, threads int) float64) sim.Series {
	out := sim.Series{}
	for _, name := range locks {
		pts := make([]sim.Point, 0, len(cfg.Threads))
		for _, tc := range cfg.Threads {
			pts = append(pts, sim.Point{X: tc, Value: fn(name, tc)})
		}
		out[name] = pts
	}
	return out
}

// RevocationScanRate measures the writer's table scan in ns/slot (the paper
// reports ≈1.1ns/element on its testbed). It times the full-table scan
// primitive directly: a deployed revocation scans only the sectors its
// readers touched, and none at all on a reader-free lock.
func RevocationScanRate(tableSize, iterations int) float64 {
	tab := bias.NewTable(tableSize)
	var nanos, slots int64
	for i := 0; i < iterations; i++ {
		start := clock.Nanos()
		scanned, _ := tab.WaitEmpty(uintptr(0x1230))
		nanos += clock.Nanos() - start
		slots += int64(scanned)
	}
	if slots == 0 {
		return 0
	}
	return float64(nanos) / float64(slots)
}
