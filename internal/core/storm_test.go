package core

import (
	"sync"
	"testing"

	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/lockcheck"
	"github.com/bravolock/bravo/internal/locks/mutexrw"
	"github.com/bravolock/bravo/internal/locks/pfq"
	"github.com/bravolock/bravo/internal/locks/pft"
	"github.com/bravolock/bravo/internal/locks/ptl"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/rwl"
)

// Storms drive the full lockcheck battery through every BRAVO variant: the
// combination of fast-path readers, slow-path readers, revocation, and the
// underlying lock's own admission machinery is where the races live.

func stormVariants() map[string]func() rwl.RWLock {
	return map[string]func() rwl.RWLock{
		"bravo-ba": func() rwl.RWLock {
			return New(new(pfq.Lock), WithTable(bias.NewTable(bias.DefaultTableSize)))
		},
		"bravo-pf-t": func() rwl.RWLock {
			return New(new(pft.Lock), WithTable(bias.NewTable(bias.DefaultTableSize)))
		},
		"bravo-pthread": func() rwl.RWLock {
			return New(ptl.New(), WithTable(bias.NewTable(bias.DefaultTableSize)))
		},
		"bravo-go": func() rwl.RWLock {
			return New(new(stdrw.Lock), WithTable(bias.NewTable(bias.DefaultTableSize)))
		},
		"bravo-mutex": func() rwl.RWLock {
			return New(new(mutexrw.Lock), WithTable(bias.NewTable(bias.DefaultTableSize)))
		},
		"bravo-ba-aggressive": func() rwl.RWLock {
			// AlwaysPolicy maximizes bias flapping and revocation frequency.
			return New(new(pfq.Lock), WithTable(bias.NewTable(bias.DefaultTableSize)), WithPolicy(bias.AlwaysPolicy{}))
		},
		"bravo-ba-tiny-table": func() rwl.RWLock {
			// A 2-slot table maximizes collisions and slow-path mixing.
			return New(new(pfq.Lock), WithTable(bias.NewTable(2)), WithPolicy(bias.AlwaysPolicy{}))
		},
		"bravo-ba-2d": func() rwl.RWLock {
			return New(new(pfq.Lock), WithTable(bias.NewTable2D(8, 32)), WithPolicy(bias.AlwaysPolicy{}))
		},
		"bravo-ba-probe2": func() rwl.RWLock {
			return New(new(pfq.Lock), WithTable(bias.NewTable(4)), WithPolicy(bias.AlwaysPolicy{}), WithSecondProbe())
		},
		"bravo-ba-random": func() rwl.RWLock {
			return New(new(pfq.Lock), WithTable(bias.NewTable(64)), WithPolicy(bias.AlwaysPolicy{}), WithRandomizedIndex())
		},
		"bravo-ba-revmu": func() rwl.RWLock {
			return New(new(pfq.Lock), WithTable(bias.NewTable(64)), WithPolicy(bias.AlwaysPolicy{}), WithRevocationMutex())
		},
		"bravo-ba-bernoulli": func() rwl.RWLock {
			return New(new(pfq.Lock), WithTable(bias.NewTable(64)), WithPolicy(&bias.BernoulliPolicy{P: 4}))
		},
	}
}

func TestStormExclusion(t *testing.T) {
	for name, mk := range stormVariants() {
		t.Run(name, func(t *testing.T) {
			lockcheck.Exclusion(t, mk, 4, 2, 1200)
		})
	}
}

func TestStormWriteHeavy(t *testing.T) {
	for name, mk := range stormVariants() {
		t.Run(name, func(t *testing.T) {
			lockcheck.Exclusion(t, mk, 2, 4, 800)
		})
	}
}

func TestStormTry(t *testing.T) {
	for name, mk := range stormVariants() {
		if name == "bravo-ba-revmu" {
			// TryLock under revMu composes fine but the storm's blocking
			// Lock path already covers it; keep runtime bounded.
			continue
		}
		t.Run(name, func(t *testing.T) {
			lockcheck.TryExclusion(t, mk, 6, 800)
		})
	}
}

func TestStormSharedTableManyLocks(t *testing.T) {
	// Multiple BRAVO locks sharing one table, stormed together: inter-lock
	// collisions must never compromise exclusion (the paper: "collisions
	// are benign, and impact performance but not correctness").
	tab := bias.NewTable(8) // deliberately tiny: constant inter-lock collisions
	const nlocks = 4
	locks := make([]*Lock, nlocks)
	for i := range locks {
		locks[i] = New(new(pfq.Lock), WithTable(tab), WithPolicy(bias.AlwaysPolicy{}))
	}
	states := make([]struct {
		mu      sync.Mutex
		readers int
		writers int
	}, nlocks)
	var wg sync.WaitGroup
	fail := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := (seed + i) % nlocks
				l := locks[k]
				if (seed+i)%7 == 0 {
					l.Lock()
					states[k].mu.Lock()
					if states[k].readers != 0 || states[k].writers != 0 {
						select {
						case fail <- "writer overlap":
						default:
						}
					}
					states[k].writers++
					states[k].mu.Unlock()
					states[k].mu.Lock()
					states[k].writers--
					states[k].mu.Unlock()
					l.Unlock()
				} else {
					tok := l.RLock()
					states[k].mu.Lock()
					if states[k].writers != 0 {
						select {
						case fail <- "reader/writer overlap":
						default:
						}
					}
					states[k].readers++
					states[k].mu.Unlock()
					states[k].mu.Lock()
					states[k].readers--
					states[k].mu.Unlock()
					l.RUnlock(tok)
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if tab.Occupancy() != 0 {
		t.Fatal("table left dirty after storm")
	}
}
