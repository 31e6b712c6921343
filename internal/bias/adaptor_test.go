package bias

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/bravolock/bravo/internal/clock"
)

// feed closes exactly one window with the given read/write deltas by
// advancing the cumulative totals the adaptor has already seen.
type feeder struct {
	a      *Adaptor
	reads  uint64
	writes uint64
}

func (f *feeder) window(dr, dw uint64) {
	f.reads += dr
	f.writes += dw
	f.a.Offer(f.reads, f.writes)
}

func TestAdaptorHysteresisFlips(t *testing.T) {
	a := NewAdaptor(Thresholds{})
	w := a.th.Window
	f := &feeder{a: a}

	if a.Mode() != ModeBiased || !a.ShouldEnable() {
		t.Fatalf("initial mode = %v, ShouldEnable = %v, want biased/true", a.Mode(), a.ShouldEnable())
	}
	// Pure-write window: biased → neutral, and the policy withholds bias.
	f.window(0, w)
	if a.Mode() != ModeNeutral || a.ShouldEnable() {
		t.Fatalf("after write-heavy window: mode = %v, ShouldEnable = %v, want neutral/false", a.Mode(), a.ShouldEnable())
	}
	// Mid-band window (r ≈ 0.85, between BiasExit and BiasEnter): the dead
	// zone holds the mode (no ping-pong).
	f.window(w-w*15/100, w*15/100)
	if a.Mode() != ModeNeutral {
		t.Fatalf("dead-zone window flipped the mode to %v", a.Mode())
	}
	// Read-dominated window: neutral → biased.
	f.window(w, 0)
	if a.Mode() != ModeBiased || !a.ShouldEnable() {
		t.Fatalf("after read-heavy window: mode = %v, ShouldEnable = %v, want biased/true", a.Mode(), a.ShouldEnable())
	}
	// The same mid-band mix holds biased too.
	f.window(w-w*15/100, w*15/100)
	if a.Mode() != ModeBiased {
		t.Fatalf("dead-zone window flipped the mode to %v", a.Mode())
	}
	if got := a.Snapshot().Flips; got != 2 {
		t.Fatalf("flips = %d, want 2", got)
	}
	// There is no third mode to force, and the names are the stats surface.
	a.ForceMode(ModeNeutral + 1)
	if a.Mode() != ModeBiased || a.Snapshot().Flips != 2 {
		t.Fatalf("ForceMode accepted an undefined mode: %v", a.Mode())
	}
	if ModeBiased.String() != "biased" || ModeNeutral.String() != "neutral" || Mode(2).String() != "unknown" {
		t.Fatal("mode names changed")
	}
}

func TestAdaptorOneFlipPerWindow(t *testing.T) {
	a := NewAdaptor(Thresholds{})
	w := a.th.Window
	f := &feeder{a: a}

	// Below-window deltas never evaluate.
	f.window(w/4, 0)
	f.window(w/4, 0)
	if got := a.Snapshot().Windows; got != 0 {
		t.Fatalf("windows closed below the op threshold: %d", got)
	}
	// One Offer carrying many windows' worth of writes still closes exactly
	// one window and applies at most one flip.
	f.window(0, 10*w)
	snap := a.Snapshot()
	if snap.Windows != 1 || snap.Flips != 1 || snap.Mode != ModeNeutral {
		t.Fatalf("bulk window: windows=%d flips=%d mode=%v, want 1/1/neutral",
			snap.Windows, snap.Flips, snap.Mode)
	}
}

func TestAdaptorRevocationOverloadDemotes(t *testing.T) {
	a := NewAdaptor(Thresholds{})
	w := a.th.Window
	f := &feeder{a: a}
	now := clock.Nanos()

	// A read fraction above BiasEnter would normally keep biased mode, but
	// revocation time far beyond the window's wall time trips the
	// generalized inhibit bound and demotes to neutral.
	a.RevocationDone(now-1<<40, now)
	f.window(w, w/100)
	if a.Mode() != ModeNeutral {
		t.Fatalf("overloaded window: mode = %v, want neutral", a.Mode())
	}
	// And it blocks re-promotion while the overload persists.
	a.RevocationDone(now-1<<40, now)
	f.window(w, 0)
	if a.Mode() != ModeNeutral {
		t.Fatalf("re-promoted while revocation-overloaded: mode = %v", a.Mode())
	}
	// With the overload gone, a read-heavy window promotes again — and the
	// per-revocation deadline (N times the 2^40 ns just reported) still
	// withholds bias: the two uses of N are independent.
	f.window(w, 0)
	if a.Mode() != ModeBiased || a.ShouldEnable() {
		t.Fatalf("calm window: mode = %v, ShouldEnable = %v, want biased/false", a.Mode(), a.ShouldEnable())
	}
	a.RevocationDone(now, now)
	if !a.ShouldEnable() {
		t.Fatal("a zero-length revocation left bias inhibited")
	}
}

func TestAdaptorThresholdsSanitize(t *testing.T) {
	got := Thresholds{}.sanitize()
	if got != DefaultThresholds() {
		t.Fatalf("zero thresholds = %+v, want defaults", got)
	}
	// An inverted band is repaired into a consistent ordering.
	bad := Thresholds{BiasEnter: 0.7, BiasExit: 0.9}.sanitize()
	if bad.BiasExit > bad.BiasEnter {
		t.Fatalf("sanitize left an inconsistent band: %+v", bad)
	}
}

// TestAdaptorSnapshotCoherentUnderFlips is the satellite-2 storm: one
// goroutine closes windows that strictly alternate pure-read and pure-write
// (so the mode provably flips every window and always matches its window's
// dominant side), while snapshotters hammer Snapshot. Any torn snapshot —
// a new mode paired with the previous window's counters, or a flip count
// from a different bracket than the window count — violates one of the
// checked equalities.
func TestAdaptorSnapshotCoherentUnderFlips(t *testing.T) {
	a := NewAdaptor(Thresholds{})
	w := a.th.Window
	const windows = 4000

	var stop atomic.Bool
	var torn atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				s := a.Snapshot()
				if s.Windows == 0 {
					continue
				}
				// Window k is pure-write for odd k, pure-read for even k,
				// so the mode after window k is neutral iff k is odd — and
				// every window flips, so flips must equal windows.
				if s.Flips != s.Windows {
					torn.Add(1)
					continue
				}
				wantNeutral := s.Windows%2 == 1
				if wantNeutral != (s.Mode == ModeNeutral) ||
					wantNeutral != (s.WindowWrites > s.WindowReads) {
					torn.Add(1)
				}
			}
		}()
	}

	f := &feeder{a: a}
	for k := 1; k <= windows; k++ {
		if k%2 == 1 {
			f.window(0, w)
		} else {
			f.window(w, 0)
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d torn snapshots observed a mode/counter pairing that never existed", n)
	}
}
