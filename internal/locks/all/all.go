// Package all registers every lock in the repository with the rwl registry,
// playing the role of the paper's LD_PRELOAD interposition library (§5):
// importing it lets harness code instantiate any lock — plain or
// BRAVO-wrapped — by name, without compile-time knowledge of the
// implementation.
//
// Registered names are the paper's figure legends, the serving default
// (go-rw, bravo-go), bravo.NewFair's lock and the two adaptive locks:
//
//	ba, pthread, per-cpu, cohort-rw, go-rw, fair,
//	bravo-ba, bravo-pthread, bravo-go, adaptive-go, adaptive-fair
package all

import (
	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/locks/cohort"
	"github.com/bravolock/bravo/internal/locks/fairrw"
	"github.com/bravolock/bravo/internal/locks/percpu"
	"github.com/bravolock/bravo/internal/locks/pfq"
	"github.com/bravolock/bravo/internal/locks/ptl"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/topo"
)

func init() {
	// Underlying (plain) locks. Per-CPU and Cohort-RW are sized for the
	// paper's user-space machine (topo.X52), so their footprints and writer
	// sweep costs match the paper's.
	rwl.Register("ba", func() rwl.RWLock { return new(pfq.Lock) })
	rwl.Register("pthread", func() rwl.RWLock { return ptl.New() })
	rwl.Register("per-cpu", func() rwl.RWLock { return percpu.New(topo.X52) })
	rwl.Register("cohort-rw", func() rwl.RWLock { return cohort.New(topo.X52) })
	rwl.Register("go-rw", func() rwl.RWLock { return new(stdrw.Lock) })
	rwl.Register("fair", func() rwl.RWLock { return new(fairrw.Lock) })

	// BRAVO-transformed locks (paper's BRAVO-A naming).
	rwl.Register("bravo-ba", func() rwl.RWLock { return core.New(new(pfq.Lock)) })
	rwl.Register("bravo-pthread", func() rwl.RWLock { return core.New(ptl.New()) })
	rwl.Register("bravo-go", func() rwl.RWLock { return core.New(new(stdrw.Lock)) })

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
