package bench

import (
	"sync/atomic"

	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/xrand"
)

// ReadWhileWriting runs the §5.5 rocksdb readwhilewriting profile natively:
// a memtable with one GetLock stripe (the paper's
// --inplace_update_num_locks=1), one writer doing in-place updates
// back-to-back, and T reader threads doing Get calls on random keys among
// --num=10000. Returns aggregate reader ops completed.
func ReadWhileWriting(lockName string, readers int, cfg Config) float64 {
	const keys = 10000
	mk, ok := rwl.Lookup(lockName)
	if !ok {
		panic("bench: unknown lock " + lockName)
	}
	return cfg.Median(func() float64 {
		m := kvs.NewMemtable(mk)
		for k := uint64(0); k < keys; k++ {
			m.Put(k, kvs.EncodeValue(k))
		}
		var readerOps atomic.Uint64
		RunWorkers(readers+1, cfg.Interval, func(id int, stop *atomic.Bool) uint64 {
			rng := xrand.NewXorShift64(uint64(id) + 17)
			var ops uint64
			if id == readers { // the writer
				for i := uint64(0); !stop.Load(); i++ {
					m.Put(rng.Intn(keys), kvs.EncodeValue(i))
				}
				return 0
			}
			buf := make([]byte, 0, 8) // reused: keep the measured loop allocation-free
			for !stop.Load() {
				buf, _ = m.GetInto(rng.Intn(keys), buf)
				ops++
			}
			readerOps.Add(ops)
			return ops
		})
		return float64(readerOps.Load())
	})
}

// HashTableBench runs the §5.6 rocksdb hash_table_bench profile natively:
// a pre-populated hash cache under one lock, one inserter, one eraser, and
// T lookup threads, all back-to-back. Returns aggregate ops (reads, erases,
// insertions) completed.
func HashTableBench(lockName string, readers int, cfg Config) float64 {
	const span = 1 << 16
	mk, ok := rwl.Lookup(lockName)
	if !ok {
		panic("bench: unknown lock " + lockName)
	}
	return cfg.Median(func() float64 {
		c := kvs.NewHashCache(mk)
		c.Populate(span/2, 64)
		total := RunWorkers(readers+2, cfg.Interval, func(id int, stop *atomic.Bool) uint64 {
			rng := xrand.NewXorShift64(uint64(id) + 71)
			var ops uint64
			switch id {
			case readers: // inserter
				for !stop.Load() {
					c.Insert(&kvs.CacheEntry{Key: rng.Intn(span)})
					ops++
				}
			case readers + 1: // eraser
				for !stop.Load() {
					c.Erase(rng.Intn(span))
					ops++
				}
			default:
				for !stop.Load() {
					c.Lookup(rng.Intn(span))
					ops++
				}
			}
			return ops
		})
		return float64(total)
	})
}
