// Package all registers every lock in the repository with the rwl registry,
// playing the role of the paper's LD_PRELOAD interposition library (§5):
// importing it lets harness code instantiate any lock — plain or
// BRAVO-wrapped — by name, without compile-time knowledge of the
// implementation.
//
// Registered names mirror the paper's figure legends:
//
//	ba, pf-t, pthread, per-cpu, cohort-rw, mutex, go-rw, fair,
//	bravo-ba, bravo-pf-t, bravo-pthread, bravo-mutex, bravo-go,
//	bravo-ba-2d, bravo-ba-private, bravo-ba-probe2, bravo-ba-revmu,
//	bravo-ba-random, adaptive-go, adaptive-fair
package all

import (
	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/locks/cohort"
	"github.com/bravolock/bravo/internal/locks/fairrw"
	"github.com/bravolock/bravo/internal/locks/mutexrw"
	"github.com/bravolock/bravo/internal/locks/percpu"
	"github.com/bravolock/bravo/internal/locks/pfq"
	"github.com/bravolock/bravo/internal/locks/pft"
	"github.com/bravolock/bravo/internal/locks/ptl"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/topo"
)

// Topo is the topology used to size topology-dependent locks (Per-CPU,
// Cohort-RW). It defaults to the paper's user-space machine so footprints
// and writer sweep costs match the paper; override before instantiating
// locks if the host shape is preferred.
var Topo = topo.X52

func init() {
	// Underlying (plain) locks.
	rwl.Register("ba", func() rwl.RWLock { return new(pfq.Lock) })
	rwl.Register("pf-t", func() rwl.RWLock { return new(pft.Lock) })
	rwl.Register("pthread", func() rwl.RWLock { return ptl.New() })
	rwl.Register("per-cpu", func() rwl.RWLock { return percpu.New(Topo) })
	rwl.Register("cohort-rw", func() rwl.RWLock { return cohort.New(Topo) })
	rwl.Register("mutex", func() rwl.RWLock { return new(mutexrw.Lock) })
	rwl.Register("go-rw", func() rwl.RWLock { return new(stdrw.Lock) })
	rwl.Register("fair", func() rwl.RWLock { return new(fairrw.Lock) })

	// BRAVO-transformed locks (paper's BRAVO-A naming).
	rwl.Register("bravo-ba", func() rwl.RWLock { return core.New(new(pfq.Lock)) })
	rwl.Register("bravo-pf-t", func() rwl.RWLock { return core.New(new(pft.Lock)) })
	rwl.Register("bravo-pthread", func() rwl.RWLock { return core.New(ptl.New()) })
	rwl.Register("bravo-mutex", func() rwl.RWLock { return core.New(new(mutexrw.Lock)) })
	rwl.Register("bravo-go", func() rwl.RWLock { return core.New(new(stdrw.Lock)) })

	// BRAVO variants used by ablations and by Figure 1's idealized
	// per-lock-table form ("BRAVO-BA-Prime").
	rwl.Register("bravo-ba-2d", func() rwl.RWLock {
		rows := Topo.NumCPUs()
		// Round rows up to a power of two for the sectored geometry.
		p := 1
		for p < rows {
			p <<= 1
		}
		return core.New(new(pfq.Lock), core.WithTable(bias.NewTable2D(p, bias.DefaultRowLen)))
	})
	rwl.Register("bravo-ba-private", func() rwl.RWLock {
		return core.New(new(pfq.Lock), core.WithTable(bias.NewTable(bias.DefaultTableSize)))
	})
	rwl.Register("bravo-ba-probe2", func() rwl.RWLock {
		return core.New(new(pfq.Lock), core.WithSecondProbe())
	})
	rwl.Register("bravo-ba-revmu", func() rwl.RWLock {
		return core.New(new(pfq.Lock), core.WithRevocationMutex())
	})
	rwl.Register("bravo-ba-random", func() rwl.RWLock {
		return core.New(new(pfq.Lock), core.WithRandomizedIndex())
	})

	// Adaptive BRAVO: the policy is a bias.Adaptor, which withholds bias
	// while the observed workload (fed by the owner through Offer) is
	// write-heavy. Over fairrw the unbiased phase is strict FIFO.
	rwl.Register("adaptive-go", func() rwl.RWLock {
		return core.New(new(stdrw.Lock), core.WithPolicy(bias.NewAdaptor(bias.Thresholds{})))
	})
	rwl.Register("adaptive-fair", func() rwl.RWLock {
		return core.New(new(fairrw.Lock), core.WithPolicy(bias.NewAdaptor(bias.Thresholds{})))
	})
}
