package bias_test

import (
	"testing"

	"github.com/bravolock/bravo/internal/lockcheck"
)

// A small-scope exhaustive check of the fused slot word (ROADMAP item 6a, on
// lockcheck.Explore like the summary model): every interleaving of 2 readers of one
// lock contending for one slot (three acquisitions each), 1 writer (two
// writes) and 1 enabler (two firings), each actor advancing one shared-memory
// access at a time exactly as TryFastH/TryPublishAt (load, CAS) → publishAt's
// recheck → release, RevokeIfEnabled/Revoke (Swap, scan, await) and
// MaybeEnable order them. Reader 0 releases as a handle does, through
// ReleaseHeld's two accesses (load and compare, then a plain store); reader 1
// as the anonymous path does, through ClearOwned's one CAS. The slot is
// identity<<genBits | generation with a 2-bit generation, so the six
// publications wrap it. Each reader keeps the token of its first release as
// a ghost, and a replay of it — one more ClearOwned, by anyone, at any later
// moment, possibly between reader 0's compare and its store — is a step of
// its own. Three invariants are asserted in every reachable state:
//
//	exclusion: the writer is in its critical section ⇒ no reader holds fast;
//	ownership: the identity bits go 0 → id only by the publish CAS's winner
//	           and id → 0 only by that winner's release, which is never
//	           refused, and the word a handle release compared is the word
//	           its store overwrites;
//	replay:    a replayed token empties the slot only at an exact generation
//	           wrap — 2^genBits clears after its publication, with the lock
//	           published there again. The model counts those and stops there:
//	           it is the guard's one documented escape.
//
// Three mutants of the word's protocol are explored as negative controls; the
// explorer must refute each.

type slotVariant struct {
	blindStore bool // ClearOwned: Store(gen+1) without the compare
	dropGen    bool // TryPublishAt: CAS(w, id<<genBits), the loaded generation not carried
	wholeWord  bool // scan and await: compare the whole word to id<<genBits
}

const (
	smGenBits = 2
	smGenMask = 1<<smGenBits - 1
	smID      = 1 << smGenBits // the lock's identity, in place above the generation
	smRounds  = 3
	smWrites  = 2
	smFires   = 2
	smBias    = 1 // summary word: bias bit, and the one sector's bit above it
	smMarked  = 3
)

// Reader program counters: the access the reader performs next.
const (
	sEnabled = iota // TryFastH: Load rbias
	sLoad           // TryPublishAt: w := Load slot
	sCAS            // TryPublishAt: CAS(w, id<<genBits|w)
	sRecheck        // publishAt: Load rbias, want bias and the sector bit together
	sMark           // markSector: CAS(w, w|want)
	sHeld           // in the read critical section; the next access is the release
	sUndo           // overtaken by a revocation; the next access is ClearOwned (settle's undo)
	sStore          // reader 0's ReleaseHeld compared the word; the next access is its store
	sDone
)

// Ghost token states: none released yet, 1+generation of the kept token, spent.
const (
	ghostNone  = 0
	ghostSpent = 1 + smGenMask + 1
)

type slotReader struct {
	pc, rounds uint8
	w          uint8 // the word a load carries into the CAS that follows it
	gen        uint8 // generation captured by the publication, handed to the clear
	ghost      uint8
	since      uint8 // id → 0 transitions since the ghost token's own release, mod 2^genBits
}

type slotState struct {
	word    uint8 // rbias: smBias, smMarked or 0
	slot    uint8 // identity<<smGenBits | generation
	owner   uint8 // ghost: 1 + the reader whose CAS installed the identity, 0 when empty
	rd      [2]slotReader
	wpc     uint8
	wmask   uint8 // the sector bit the writer's Swap collected
	writes  uint8
	enables uint8
}

const (
	badSlotExclusion = "exclusion: writer in its critical section while a reader holds fast"
	badSlotOwnership = "ownership: identity bits changed by someone other than the publish CAS's winner, or the winner's release was refused"
	badSlotReplay    = "replay: a released token emptied the slot short of an exact generation wrap"
)

// keeps reports whether the reader holds a released token it has not replayed.
func (r slotReader) keeps() bool { return r.ghost != ghostNone && r.ghost != ghostSpent }

// clearOwned is Table.ClearOwned on the model word and reports whether it
// made an id → 0 transition: the compare held, or the blind store hit a
// published slot.
func (s *slotState) clearOwned(v slotVariant, gen uint8) (emptied bool) {
	emptied = s.slot == smID|gen
	if v.blindStore {
		emptied = s.slot>>smGenBits != 0
	}
	if emptied || v.blindStore {
		s.slot = (gen + 1) & smGenMask
	}
	return emptied
}

// noteEmptied advances every kept token's distance from its release.
func (s *slotState) noteEmptied() {
	for r := range s.rd {
		if s.rd[r].keeps() {
			s.rd[r].since = (s.rd[r].since + 1) & smGenMask
		}
	}
}

// stepReader advances reader r by one access. ok is false when it has none
// left or the step violated bad.
func (s slotState) stepReader(v slotVariant, r int) (_ slotState, ok bool, bad string) {
	rd := &s.rd[r]
	endRound := func() {
		rd.rounds++
		rd.pc, rd.w, rd.gen = sEnabled, 0, 0
		if rd.rounds == smRounds {
			rd.pc = sDone
		}
	}
	switch rd.pc {
	case sEnabled:
		if s.word&smBias == 0 {
			endRound() // slow path: not modelled
		} else {
			rd.pc = sLoad
		}
	case sLoad:
		if s.slot>>smGenBits != 0 {
			endRound() // collision
		} else {
			rd.pc, rd.w = sCAS, s.slot
		}
	case sCAS:
		if s.slot != rd.w {
			endRound() // published and cleared, or held, in between: collision
			break
		}
		if s.owner != 0 {
			return s, false, badSlotOwnership
		}
		s.owner, rd.gen, s.slot = uint8(r+1), rd.w, smID|rd.w
		if v.dropGen {
			s.slot = smID
		}
		rd.pc, rd.w = sRecheck, 0
	case sRecheck:
		switch w := s.word; {
		case w&smBias == 0:
			rd.pc = sUndo
		case w == smMarked:
			rd.pc = sHeld
		default:
			rd.pc, rd.w = sMark, w
		}
	case sMark: // on failure markSector re-observes: bias off, bit set by the other reader, or CAS again
		if s.word != rd.w {
			rd.pc, rd.w = sRecheck, 0
		} else {
			s.word, rd.pc, rd.w = smMarked, sHeld, 0
		}
	case sHeld, sUndo, sStore:
		switch {
		case rd.pc == sHeld && r == 0: // ReleaseHeld: load and compare
			if s.slot != smID|rd.gen || s.owner != uint8(r+1) {
				return s, false, badSlotOwnership // refused, or the slot was already erased
			}
			rd.pc = sStore
			return s, true, ""
		case rd.pc == sStore: // ReleaseHeld: the plain store
			if s.slot != smID|rd.gen || s.owner != uint8(r+1) {
				return s, false, badSlotOwnership // the word changed under the compare
			}
			s.slot = (rd.gen + 1) & smGenMask
		case !s.clearOwned(v, rd.gen) || s.owner != uint8(r+1):
			return s, false, badSlotOwnership // refused, or the slot was already erased
		}
		s.owner = 0
		s.noteEmptied()
		if rd.ghost == ghostNone {
			rd.ghost, rd.since = 1+rd.gen, 0
		}
		endRound()
	default:
		return s, false, ""
	}
	return s, true, ""
}

// stepReplay releases reader r's kept token once more. A refused replay is
// the guard working and leaves the state as it was but for the spent token;
// wrapped reports the exact-wrap escape, where exploration stops.
func (s slotState) stepReplay(v slotVariant, r int) (_ slotState, ok, wrapped bool, bad string) {
	rd := &s.rd[r]
	if !rd.keeps() {
		return s, false, false, ""
	}
	emptied := s.clearOwned(v, rd.ghost-1)
	atWrap := rd.since == smGenMask
	rd.ghost, rd.since = ghostSpent, 0
	switch {
	case emptied && atWrap:
		return s, false, true, ""
	case emptied:
		return s, false, false, badSlotReplay
	}
	return s, true, false, ""
}

// Writer program counters, as in the summary model.
const (
	swLock = iota
	swCheck
	swSwap
	swScan
	swCS
	swDone
)

// stepWriter advances the writer by one access; ok is false when it is done
// or awaiting the slot's reader.
func (s slotState) stepWriter(v slotVariant) (_ slotState, ok bool) {
	switch s.wpc {
	case swLock:
		s.wpc = swCheck
	case swCheck:
		s.wpc = swSwap
		if s.word&smBias == 0 {
			s.wpc = swCS
		}
	case swSwap:
		s.wmask, s.word, s.wpc = s.word>>1, 0, swScan
		if s.wmask == 0 {
			s.wpc = swCS // the summary names no sector: nothing to visit
		}
	case swScan:
		held := s.slot>>smGenBits != 0
		if v.wholeWord {
			held = s.slot == smID
		}
		if held {
			return s, false // awaitSlot re-loads until the reader leaves
		}
		s.wmask, s.wpc = 0, swCS
	case swCS:
		s.writes++
		s.wpc = swLock
		if s.writes == smWrites {
			s.wpc = swDone
		}
	default:
		return s, false
	}
	return s, true
}

// stepEnabler is a slow reader's MaybeEnable: CAS(0, bias) under a substrate
// read hold, which excludes the writer between its lock and its unlock.
func (s slotState) stepEnabler() (slotState, bool) {
	if s.enables == smFires || (s.wpc != swLock && s.wpc != swDone) {
		return s, false
	}
	s.enables++
	if s.word == 0 {
		s.word = smBias
	}
	return s, true
}

// slotModelResult is what one exploration reached.
type slotModelResult struct {
	bad    map[string]bool
	states int
	wraps  int // replays that emptied the slot at an exact generation wrap
	// Vacuity witnesses: the model is worth nothing unless it reaches these.
	fast, undo, collision, await bool
}

func exploreSlotModel(v slotVariant) slotModelResult {
	res := slotModelResult{bad: map[string]bool{}}
	res.states = lockcheck.Explore(slotState{}, func(s slotState, next func(slotState)) {
		for r := range s.rd {
			switch pc := s.rd[r].pc; {
			case pc == sHeld:
				res.fast = true
				if s.wpc == swCS {
					res.bad[badSlotExclusion] = true
				}
			case pc == sUndo:
				res.undo = true
			case (pc == sLoad && s.slot>>smGenBits != 0) || (pc == sCAS && s.slot != s.rd[r].w):
				res.collision = true
			}
			n, ok, bad := s.stepReader(v, r)
			if bad != "" {
				res.bad[bad] = true
			}
			if ok {
				next(n)
			}
			n, ok, wrapped, bad := s.stepReplay(v, r)
			if bad != "" {
				res.bad[bad] = true
			}
			if wrapped {
				res.wraps++
			}
			if ok {
				next(n)
			}
		}
		if n, ok := s.stepWriter(v); ok {
			next(n)
		} else if s.wpc == swScan {
			res.await = true
		}
		if n, ok := s.stepEnabler(); ok {
			next(n)
		}
	})
	return res
}

func TestSlotWordModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    slotVariant
		want string // the invariant the explorer must refute; "" for the protocol as built
	}{
		{"load, CAS carrying the generation; clear by CAS; scan compares identity", slotVariant{}, ""},
		{"mutant: blind-store clear", slotVariant{blindStore: true}, badSlotReplay},
		{"mutant: publish drops the loaded generation", slotVariant{dropGen: true}, badSlotOwnership},
		{"mutant: scan compares the whole word", slotVariant{wholeWord: true}, badSlotExclusion},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := exploreSlotModel(tc.v)
			t.Logf("%d states explored, %d exact-wrap replays", res.states, res.wraps)
			if !(res.fast && res.undo && res.collision && res.await) {
				t.Fatalf("model is vacuous: %+v", res)
			}
			if tc.want == "" {
				for k := range res.bad {
					t.Error(k)
				}
				// The one escape is real and reachable: state it rather than hide it.
				if res.wraps == 0 {
					t.Error("no replay reached the exact generation wrap: the model does not cover it")
				}
				return
			}
			if !res.bad[tc.want] {
				t.Fatalf("explorer found %v, want a counterexample to %q", res.bad, tc.want)
			}
		})
	}
}
