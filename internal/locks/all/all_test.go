package all

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/lockcheck"
	"github.com/bravolock/bravo/internal/rwl"
)

// expected is the lineup the harness and docs promise; the batteries below
// run over rwl.Names(), which TestRegistryLineup holds equal to it.
var expected = []string{
	"ba", "pf-t", "pthread", "per-cpu", "cohort-rw", "mutex", "go-rw", "fair",
	"bravo-ba", "bravo-pf-t", "bravo-pthread", "bravo-mutex", "bravo-go",
	"bravo-ba-2d", "bravo-ba-private", "bravo-ba-probe2", "bravo-ba-revmu",
	"bravo-ba-random", "adaptive-go", "adaptive-fair",
}

func TestRegistryLineup(t *testing.T) {
	got, want := slices.Clone(rwl.Names()), slices.Clone(expected)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("registry = %v\nexpected = %v", got, want)
	}
}

func TestEveryRegisteredLockSurvivesStorm(t *testing.T) {
	// Every configuration the benchmarks can select must uphold mutual
	// exclusion under a mixed storm — including the topology-sized locks
	// (Per-CPU sweeps 72 sub-locks per write on the X5-2 shape) and every
	// BRAVO variant.
	for _, name := range rwl.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			f, ok := rwl.Lookup(name)
			if !ok {
				t.Fatalf("lookup %q failed", name)
			}
			iters := 400
			if name == "per-cpu" { // writer sweeps are expensive; keep it brisk
				iters = 100
			}
			lockcheck.Exclusion(t, func() rwl.RWLock { return f() }, 3, 2, iters)
		})
	}
}

func TestReadConcurrencyWhereGuaranteed(t *testing.T) {
	// All reader-writer locks must admit concurrent readers; the mutex
	// adapter (and BRAVO-mutex before bias engages) is the documented
	// exception.
	for _, name := range rwl.Names() {
		if name == "mutex" || name == "bravo-mutex" {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			l, err := rwl.New(name)
			if err != nil {
				t.Fatal(err)
			}
			// Engage bias where applicable so fast-path readers coexist.
			tok := l.RLock()
			l.RUnlock(tok)
			lockcheck.ReadersConcurrent(t, l)
		})
	}
}

func TestWriterExclusionEverywhere(t *testing.T) {
	for _, name := range rwl.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			l, err := rwl.New(name)
			if err != nil {
				t.Fatal(err)
			}
			lockcheck.WriterExcludesReaders(t, l)
		})
	}
}

// TestAdaptiveLocksNeutralAndFlipping storms the adaptive lineups once with
// the mode pinned neutral (bias withheld: over fairrw, the FIFO lock) and
// once with a goroutine flipping the mode under the storm, so readers
// acquire under one mode and release under the other.
func TestAdaptiveLocksNeutralAndFlipping(t *testing.T) {
	for _, name := range []string{"adaptive-go", "adaptive-fair"} {
		for _, posture := range []string{"neutral", "flipping"} {
			t.Run(name+"/"+posture, func(t *testing.T) {
				var stop atomic.Bool
				defer stop.Store(true)
				mk := func() rwl.HandleRWLock {
					l, err := rwl.New(name)
					if err != nil {
						t.Fatal(err)
					}
					ad := l.(interface{ Adaptor() *bias.Adaptor }).Adaptor()
					ad.ForceMode(bias.ModeNeutral)
					if posture == "flipping" {
						go func() {
							for i := 0; !stop.Load(); i++ {
								ad.ForceMode(bias.Mode(i % 2))
								runtime.Gosched()
							}
						}()
					}
					return l.(rwl.HandleRWLock)
				}
				lockcheck.Exclusion(t, func() rwl.RWLock { return mk() }, 3, 2, 2000)
				lockcheck.HandleExclusion(t, mk, 3, 2, 2000)
				lockcheck.TryExclusion(t, func() rwl.RWLock { return mk() }, 4, 1500)
			})
		}
	}
}
