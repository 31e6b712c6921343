package adaptive

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/rwl"
)

func newAdaptive() *Lock {
	return New(core.New(new(stdrw.Lock), core.WithTable(bias.NewTable(bias.DefaultTableSize))))
}

// TestAdaptorWiredIntoEngine verifies the construction contract: the inner
// engine consults the adaptor, so bias cannot re-enable in fair or neutral
// mode.
func TestAdaptorWiredIntoEngine(t *testing.T) {
	l := newAdaptive()
	eng := l.Engine()
	if eng == nil || eng.AdaptorInUse() != l.Adaptor() {
		t.Fatal("adaptor not wired into the inner bias engine")
	}
	// Read in biased mode: bias enables.
	tok := l.RLock()
	l.RUnlock(tok)
	if !eng.Enabled() {
		t.Fatal("bias did not enable in biased mode")
	}
	// Demote; the next writer revokes, and reads no longer re-enable.
	l.Adaptor().ForceMode(bias.ModeNeutral)
	l.Lock()
	l.Unlock()
	if eng.Enabled() {
		t.Fatal("bias survived a writer after demotion")
	}
	tok = l.RLock()
	l.RUnlock(tok)
	if eng.Enabled() {
		t.Fatal("bias re-enabled in neutral mode")
	}
}

// TestMutualExclusionAcrossFlips is the core safety property: readers and
// writers stay mutually excluded while the mode is flipped underneath them,
// including readers that acquired on one mode and release on another.
func TestMutualExclusionAcrossFlips(t *testing.T) {
	l := newAdaptive()
	var readers, writers atomic.Int32
	var violations atomic.Int32
	var stop atomic.Bool

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := rwl.NewReader()
			for i := 0; i < 3000; i++ {
				switch {
				case (g+i)%5 == 0:
					l.Lock()
					if writers.Add(1) != 1 || readers.Load() != 0 {
						violations.Add(1)
					}
					writers.Add(-1)
					l.Unlock()
				case g%2 == 0:
					tok := l.RLockH(h)
					readers.Add(1)
					if writers.Load() != 0 {
						violations.Add(1)
					}
					readers.Add(-1)
					l.RUnlockH(h, tok)
				default:
					tok := l.RLock()
					readers.Add(1)
					if writers.Load() != 0 {
						violations.Add(1)
					}
					readers.Add(-1)
					l.RUnlock(tok)
				}
			}
		}(g)
	}
	modes := []bias.Mode{bias.ModeFair, bias.ModeNeutral, bias.ModeBiased}
	flipDone := make(chan struct{})
	go func() {
		defer close(flipDone)
		for i := 0; !stop.Load(); i++ {
			l.Adaptor().ForceMode(modes[i%len(modes)])
			runtime.Gosched()
		}
	}()
	wg.Wait()
	stop.Store(true)
	<-flipDone
	if n := violations.Load(); n != 0 {
		t.Fatalf("mutual exclusion violated %d times across mode flips", n)
	}
}

// TestTokenRouting verifies a read acquired in fair mode releases through
// the gate even if the mode flipped before the unlock.
func TestTokenRouting(t *testing.T) {
	l := newAdaptive()
	l.Adaptor().ForceMode(bias.ModeFair)
	tok := l.RLock()
	if tok&fairBit == 0 {
		t.Fatal("fair-mode read not tagged with the gate bit")
	}
	l.Adaptor().ForceMode(bias.ModeBiased)
	l.RUnlock(tok) // must release the gate, not the inner lock
	if l.fair.Queued() != 0 {
		t.Fatal("fair gate still held after cross-mode release")
	}
	// And the lock is fully usable afterwards.
	l.Lock()
	l.Unlock()
}

// TestTryPaths exercises TryRLock/TryLock in each mode.
func TestTryPaths(t *testing.T) {
	l := newAdaptive()
	for _, m := range []bias.Mode{bias.ModeBiased, bias.ModeNeutral, bias.ModeFair} {
		l.Adaptor().ForceMode(m)
		tok, ok := l.TryRLock()
		if !ok {
			t.Fatalf("mode %v: TryRLock failed on idle lock", m)
		}
		if !l.TryLock() {
			// A reader is holding it; a try-writer must fail.
		} else {
			t.Fatalf("mode %v: TryLock succeeded under a reader", m)
		}
		l.RUnlock(tok)
		if !l.TryLock() {
			t.Fatalf("mode %v: TryLock failed on idle lock", m)
		}
		if _, ok := l.TryRLock(); ok {
			t.Fatalf("mode %v: TryRLock succeeded under a writer", m)
		}
		l.Unlock()
	}
}

// TestWritersAlwaysTakeGate pins the invariant the exclusion proof rests
// on: a held write lock blocks fair-gate readers in every mode.
func TestWritersAlwaysTakeGate(t *testing.T) {
	l := newAdaptive()
	l.Lock()
	if _, ok := l.fair.TryRLock(); ok {
		t.Fatal("fair gate admitted a reader while a writer holds the lock")
	}
	l.Unlock()
}
