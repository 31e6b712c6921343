package bias_test

import (
	"testing"

	"github.com/bravolock/bravo/internal/lockcheck"
)

// A small-scope exhaustive check of the occupancy-summary protocol
// (ROADMAP item 6a): every interleaving of 2 readers, 1 writer (two writes)
// and 1 enabler (two firings) over a table of 2 sectors × 2 slots, each
// actor advancing one shared-memory access at a time exactly as
// publishAt/markSector, RevokeIfEnabled/Revoke/waitEmptyIn and MaybeEnable
// order them. Two invariants are asserted in every reachable state:
//
//	exclusion: the writer is in its critical section ⇒ no reader holds fast;
//	summary:   a successful fast read's sector bit is in the next Swap's result.
//
// The two protocol mutants the design rules out — a reader that marks before
// it publishes, a writer that Loads then Stores 0 — are explored too, as
// negative controls: the explorer must find a counterexample for each.

type modelVariant struct {
	markFirst bool // reader: check/mark the sector bit, then CAS the slot, then recheck bias only
	loadStore bool // writer: w := Load(); Store(0) instead of w := Swap(0)
}

// Program counters. Readers: load word → CAS slot → recheck word → (CAS
// word) → hold → clear slot. Writer: substrate lock → bias check → swap
// (→ store) → scan → critical section.
const (
	rLoad = iota
	rSlot
	rRecheck
	rMark
	rHeld
	rUndo
	rDone
)

const (
	wLock = iota
	wCheck
	wSwap
	wStore
	wScan
	wCS
	wDone
)

const (
	modelSlots  = 4 // sector = slot / 2
	modelWrites = 2
	modelFires  = 2
)

type modelReader struct{ pc, w uint8 } // w: the word value carried into the CAS

type modelState struct {
	word    uint8 // bit 0 bias, bit 1+s sector s
	slots   [modelSlots]bool
	rd      [2]modelReader
	owed    [2]bool // ghost: read fast since the last Swap, so the Swap must return its bit
	wpc     uint8
	wmask   uint8 // sectors the writer's Swap collected
	wscan   uint8 // next slot the scan visits
	writes  uint8
	enables uint8
}

func sectorBit(slot uint8) uint8 { return 1 << (1 + slot/2) }

// stepReader advances reader r (using slot k) by one access; ok is false
// when it has none left.
func (s modelState) stepReader(v modelVariant, r int, k uint8) (_ modelState, ok bool) {
	rd := &s.rd[r]
	want := 1 | sectorBit(k)
	fast := func() { rd.pc, s.owed[r] = rHeld, true }
	switch rd.pc {
	case rLoad:
		switch w := s.word; {
		case w&1 == 0:
			rd.pc = rDone // slow path: not modelled
		case v.markFirst && w&want != want:
			rd.pc, rd.w = rMark, w
		default:
			rd.pc = rSlot
		}
	case rSlot:
		if s.slots[k] {
			rd.pc = rDone // collision
		} else {
			s.slots[k], rd.pc = true, rRecheck
		}
	case rRecheck:
		switch w := s.word; {
		case w&1 == 0:
			rd.pc = rUndo
		case v.markFirst || w&want == want:
			fast()
		default:
			rd.pc, rd.w = rMark, w
		}
	case rMark: // CAS(w, w|bit); on failure re-observe
		switch {
		case s.word != rd.w && v.markFirst:
			rd.pc = rLoad
		case s.word != rd.w:
			rd.pc = rRecheck
		case v.markFirst:
			s.word, rd.pc = rd.w|want, rSlot
		default:
			s.word = rd.w | want
			fast()
		}
	case rHeld, rUndo:
		s.slots[k], rd.pc = false, rDone
	default:
		return s, false
	}
	return s, true
}

// stepWriter advances the writer by one access; ok is false when it is done
// or waiting on an occupied slot; missed reports a violated summary invariant.
func (s modelState) stepWriter(v modelVariant, slot [2]uint8) (_ modelState, ok, missed bool) {
	collect := func() {
		for r, o := range s.owed {
			if o && s.wmask&(sectorBit(slot[r])>>1) == 0 {
				missed = true
			}
		}
		s.owed, s.word, s.wscan, s.wpc = [2]bool{}, 0, 0, wScan
	}
	switch s.wpc {
	case wLock:
		s.wpc = wCheck
	case wCheck:
		if s.word&1 == 0 {
			s.wpc = wCS
		} else {
			s.wpc = wSwap
		}
	case wSwap:
		s.wmask = s.word >> 1
		if v.loadStore {
			s.wpc = wStore
		} else {
			collect()
		}
	case wStore:
		collect()
	case wScan:
		for s.wscan < modelSlots && s.wmask&(sectorBit(s.wscan)>>1) == 0 {
			s.wscan++
		}
		switch {
		case s.wscan == modelSlots:
			s.wpc = wCS
		case s.slots[s.wscan]:
			return s, false, false // waits for the reader to leave
		default:
			s.wscan++
		}
	case wCS:
		s.writes++
		s.wpc = wLock
		if s.writes == modelWrites {
			s.wpc = wDone
		}
	default:
		return s, false, false
	}
	return s, true, missed
}

// stepEnabler is a slow reader's MaybeEnable: CAS(0, bias) under a substrate
// read hold, which excludes the writer between its lock and its unlock.
func (s modelState) stepEnabler() (modelState, bool) {
	if s.enables == modelFires || (s.wpc != wLock && s.wpc != wDone) {
		return s, false
	}
	s.enables++
	if s.word == 0 {
		s.word = 1
	}
	return s, true
}

const (
	badExclusion = "exclusion: writer in its critical section while a reader holds fast"
	badSummary   = "summary: a fast read's sector bit is missing from the Swap's result"
)

// exploreModel visits every state reachable with the readers on the given
// slots and returns the invariants violated, the number of states, and
// whether a fast read and a sector-limited scan were reached at all.
func exploreModel(v modelVariant, slot [2]uint8) (bad map[string]bool, states int, sawFast, sawScan bool) {
	bad = map[string]bool{}
	states = lockcheck.Explore(modelState{}, func(s modelState, next func(modelState)) {
		held := s.rd[0].pc == rHeld || s.rd[1].pc == rHeld
		sawFast = sawFast || held
		sawScan = sawScan || (s.wpc == wScan && s.wmask != 0 && s.wmask != 3)
		if s.wpc == wCS && held {
			bad[badExclusion] = true
		}
		for r := range s.rd {
			if n, ok := s.stepReader(v, r, slot[r]); ok {
				next(n)
			}
		}
		n, ok, missed := s.stepWriter(v, slot)
		if missed {
			bad[badSummary] = true
		}
		if ok {
			next(n)
		}
		if n, ok := s.stepEnabler(); ok {
			next(n)
		}
	})
	return bad, states, sawFast, sawScan
}

func TestSummaryProtocolModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    modelVariant
		safe bool
	}{
		{"publish, then observe bias and bit together; Swap", modelVariant{}, true},
		{"mutant: mark before publishing", modelVariant{markFirst: true}, false},
		{"mutant: Load then Store(0)", modelVariant{loadStore: true}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			total, found := 0, map[string]bool{}
			for a := uint8(0); a < modelSlots; a++ {
				for b := uint8(0); b < modelSlots; b++ {
					bad, states, sawFast, sawScan := exploreModel(tc.v, [2]uint8{a, b})
					total += states
					for k := range bad {
						found[k] = true
						if tc.safe {
							t.Errorf("readers on slots %d,%d: %s", a, b, k)
						}
					}
					if !sawFast || (a/2 == b/2 && !sawScan) {
						t.Fatalf("readers on slots %d,%d: model is vacuous (fast read reached %v, sector-limited scan reached %v)", a, b, sawFast, sawScan)
					}
				}
			}
			if !tc.safe && !(found[badExclusion] && found[badSummary]) {
				t.Fatalf("explorer found %v in %d states, want a counterexample to both invariants", found, total)
			}
			t.Logf("%d states explored", total)
		})
	}
}
