package bias

import (
	"fmt"
	"testing"
)

// ledgerPanic is the handle ledger's verdict on a fast release it holds no
// record of; tablePanic is the slot guard's on a token whose word is gone.
const (
	ledgerPanic = "bias: unbalanced fast-path RUnlock (double unlock or unlock without lock)"
	tablePanic  = "bias: unbalanced fast-path RUnlock (double unlock, unlock without lock, or wrong lock)"
)

// panicMessage runs f and returns what it panicked with, "" if it returned.
func panicMessage(f func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	f()
	return ""
}

// distinctHomes returns n biased engines on tab whose home slots for reader
// id all differ, so that any of them can be held at once.
func distinctHomes(t *testing.T, tab *Table, id uint64, n int) []*Engine {
	t.Helper()
	used := map[uint32]bool{}
	var out []*Engine
	for len(out) < n {
		e, _ := engineOn(t, tab)
		if home := tab.Index(e.ID(), id); !used[home] {
			used[home] = true
			out = append(out, e)
		}
	}
	return out
}

// TestHintFollowsEviction cycles one handle over ReaderSlots+1 locks, holding
// each across the next one's acquisition, so the hint's entry is evicted and
// reassigned while another hold is live. Every read must publish at its own
// home slot and every release must empty that slot and no other.
func TestHintFollowsEviction(t *testing.T) {
	tab := NewTable(DefaultTableSize)
	r := NewReaderWithID(77)
	engines := distinctHomes(t, tab, 77, ReaderSlots+1)
	var prev *Engine
	var prevTok SlotToken
	for i := 0; i < 4*len(engines); i++ {
		e := engines[i%len(engines)]
		tok, ok := e.TryFastH(r)
		if home := tab.Index(e.ID(), 77); !ok || tok.Index() != home || tab.Load(home) != e.ID() {
			t.Fatalf("step %d: ok=%v slot %d holding %#x, want the fast home slot %d", i, ok, tok.Index(), tab.Load(tok.Index()), home)
		}
		if prev != nil {
			prev.ReleaseFastAt(r, prevTok)
			if tab.Load(prevTok.Index()) != 0 || tab.Load(tok.Index()) != e.ID() {
				t.Fatalf("step %d: the release of slot %d disturbed the hold at slot %d", i, prevTok.Index(), tok.Index())
			}
		}
		if tab.Occupancy() != 1 || r.Held() != 1 {
			t.Fatalf("step %d: occupancy %d, %d holds, want 1 and 1", i, tab.Occupancy(), r.Held())
		}
		prev, prevTok = e, tok
	}
	prev.ReleaseFastAt(r, prevTok)
	if tab.Occupancy() != 0 || r.Held() != 0 {
		t.Fatalf("occupancy %d, %d holds after the last release", tab.Occupancy(), r.Held())
	}
}

// TestHintUnbalancedReleasesPanic reaches each unbalanced fast release with
// the hint pointing at the lock's entry, or at an entry that was reassigned,
// and checks the verdict and its message are the ledger's or the slot's as
// before the hint.
func TestHintUnbalancedReleasesPanic(t *testing.T) {
	tab := NewTable(DefaultTableSize)
	engines := distinctHomes(t, tab, 5, ReaderSlots+1)
	e := engines[0]

	r := NewReaderWithID(5)
	tok, ok := e.TryFastH(r)
	if !ok {
		t.Fatal("setup acquisition failed")
	}
	e.ReleaseFastAt(r, tok)
	if msg := panicMessage(func() { e.ReleaseFastAt(r, tok) }); msg != ledgerPanic {
		t.Errorf("double release: panic %q, want %q", msg, ledgerPanic)
	}
	if e.ReleaseFast(r) {
		t.Error("ReleaseFast after the release reported a hold")
	}

	// Another handle's token: r holds e at its own slot, other at another.
	oid := uint64(6)
	for tab.Index(e.ID(), oid) == tab.Index(e.ID(), 5) {
		oid++
	}
	other := NewReaderWithID(oid)
	mine, ok1 := e.TryFastH(r)
	theirs, ok2 := e.TryFastH(other)
	if !ok1 || !ok2 {
		t.Fatal("setup: the two handles did not both publish")
	}
	if msg := panicMessage(func() { e.ReleaseFastAt(r, theirs) }); msg != ledgerPanic {
		t.Errorf("another handle's token: panic %q, want %q", msg, ledgerPanic)
	}
	// The same index with another generation passes the ledger; the slot's
	// compare refuses it.
	forged := makeSlotToken(mine.Index(), mine.Gen()+1)
	if msg := panicMessage(func() { e.ReleaseFastAt(r, forged) }); msg != "bias: unbalanced fast-path RUnlock (stale read token)" {
		t.Errorf("forged generation: panic %q", msg)
	}
	// The ledger dropped r's hold before the slot refused the clear, so the
	// slot stays published; other's hold is untouched.
	e.ReleaseFastAt(other, theirs)
	if tab.Load(mine.Index()) != e.ID() || r.Held() != 0 {
		t.Fatalf("after the refusals: slot %#x, %d holds on r", tab.Load(mine.Index()), r.Held())
	}
	tab.Clear(mine.Index())

	// Release after eviction: every other lock rolls through r, so e's entry
	// is reassigned and the hint points at some other lock.
	if tok, ok = e.TryFastH(r); !ok {
		t.Fatal("setup acquisition failed")
	}
	e.ReleaseFastAt(r, tok)
	for _, o := range engines[1:] {
		ot, ok := o.TryFastH(r)
		if !ok {
			t.Fatal("setup: rolling acquisition failed")
		}
		o.ReleaseFastAt(r, ot)
	}
	if _, ok := r.CachedSlot(e); ok {
		t.Fatal("setup: e's entry survived the roll")
	}
	if msg := panicMessage(func() { e.ReleaseFastAt(r, tok) }); msg != ledgerPanic {
		t.Errorf("release after eviction: panic %q, want %q", msg, ledgerPanic)
	}
	if e.ReleaseFast(r) {
		t.Error("ReleaseFast after eviction reported a hold")
	}
	// A token from the evicted entry, replayed on the table directly, is
	// refused by the slot guard.
	if msg := panicMessage(func() { e.ClearFast(tok) }); msg != tablePanic {
		t.Errorf("replay at the table: panic %q, want %q", msg, tablePanic)
	}
	if tab.Occupancy() != 0 {
		t.Fatalf("occupancy %d after the refusals", tab.Occupancy())
	}
}

// TestCopiedReaderHintStaysInCopy copies an idle handle and reads through the
// copy: the hold lands in the copy's ledger only. A hint that pointed into
// the original's entries would mark the original as holding.
func TestCopiedReaderHintStaysInCopy(t *testing.T) {
	e, _ := biasedEngine(t)
	orig := NewReaderWithID(11)
	tok, ok := e.TryFastH(orig)
	if !ok {
		t.Fatal("setup acquisition failed")
	}
	e.ReleaseFastAt(orig, tok)
	cp := *orig
	tok, ok = e.TryFastH(&cp)
	if !ok {
		t.Fatal("copy's acquisition failed")
	}
	if cp.Held() != 1 || orig.Held() != 0 {
		t.Fatalf("holds: copy %d, original %d, want 1 and 0", cp.Held(), orig.Held())
	}
	if e.ReleaseFast(orig) {
		t.Fatal("the original released the copy's hold")
	}
	e.ReleaseFastAt(&cp, tok)
	if e.Table().Occupancy() != 0 {
		t.Fatal("table dirty after the copy's release")
	}
}

// TestCopiedReaderDoubleRelease copies a handle while it holds a fast read
// and releases through the copy, then through the original. Both ledgers say
// held, so the second release passes its ledger, and ReleaseHeld's compare
// must refuse it before it stores: the slot stays empty, whichever release
// shape runs.
func TestCopiedReaderDoubleRelease(t *testing.T) {
	for _, c := range []struct {
		name    string
		release func(e *Engine, r *Reader, tok SlotToken)
	}{
		{"ReleaseFastAt", (*Engine).ReleaseFastAt},
		{"ReleaseFast", func(e *Engine, r *Reader, _ SlotToken) { e.ReleaseFast(r) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, _ := biasedEngine(t)
			orig := NewReaderWithID(11)
			tok, ok := e.TryFastH(orig)
			if !ok {
				t.Fatal("setup acquisition failed")
			}
			cp := *orig
			c.release(e, &cp, tok)
			if msg := panicMessage(func() { c.release(e, orig, tok) }); msg != tablePanic {
				t.Errorf("the original's release after the copy's: panic %q, want %q", msg, tablePanic)
			}
			if n := e.Table().Occupancy(); n != 0 || orig.Held() != 0 || cp.Held() != 0 {
				t.Fatalf("occupancy %d, holds %d and %d after the two releases", n, orig.Held(), cp.Held())
			}
		})
	}
}

// TestProbeOutcomes sets up each outcome of the probe sequence on one slot,
// with forceBias and a foreign identity, and checks the token, the slot word,
// the rbias word and every counter, through the anonymous and the handle
// path, on a default engine and on one with stats.
func TestProbeOutcomes(t *testing.T) {
	const foreign = uintptr(0xF00D0)
	const id = 77
	cases := []struct {
		name   string
		setup  func(e *Engine, tab *Table, idx uint32)
		fast   bool
		handle bool // the handle path can reach it: TryFastH checks bias first
		slot   func(e *Engine, gen uint64) uint64
		rbias  func(want uint32) uint32
		count  Snapshot
	}{{
		name: "published",
		setup: func(e *Engine, tab *Table, idx uint32) {
			e.forceBias(true)
			e.markSector(biasBit | 1<<(sectorBase+tab.sector(idx)))
		},
		fast: true, handle: true,
		slot:  func(e *Engine, gen uint64) uint64 { return uint64(e.ID())<<genBits | gen },
		rbias: func(want uint32) uint32 { return want },
		count: Snapshot{FastRead: 1},
	}, {
		name: "foreign",
		setup: func(e *Engine, tab *Table, idx uint32) {
			e.forceBias(true)
			tab.TryPublishAt(idx, foreign)
		},
		handle: true,
		slot:   func(_ *Engine, gen uint64) uint64 { return uint64(foreign)<<genBits | gen },
		rbias:  func(uint32) uint32 { return biasBit },
		count:  Snapshot{SlowCollision: 1},
	}, {
		name:  "unmarked",
		setup: func(e *Engine, _ *Table, _ uint32) { e.forceBias(true) },
		fast:  true, handle: true,
		slot:  func(e *Engine, gen uint64) uint64 { return uint64(e.ID())<<genBits | gen },
		rbias: func(want uint32) uint32 { return want },
		count: Snapshot{FastRead: 1},
	}, {
		name:  "raced",
		setup: func(e *Engine, _ *Table, _ uint32) { e.forceBias(false) },
		slot:  func(_ *Engine, gen uint64) uint64 { return (gen + 1) & genMask },
		rbias: func(uint32) uint32 { return 0 },
		count: Snapshot{SlowRaced: 1},
	}}
	for _, c := range cases {
		for _, stats := range []bool{false, true} {
			for _, handle := range []bool{false, true} {
				if handle && !c.handle {
					continue
				}
				t.Run(fmt.Sprintf("%s/stats=%v/handle=%v", c.name, stats, handle), func(t *testing.T) {
					e := &Engine{}
					st := &Stats{}
					if stats {
						e.SetStats(st)
					}
					e.Init()
					tab := e.Table()
					idx := tab.Index(e.ID(), id)
					want := uint32(biasBit | 1<<(sectorBase+tab.sector(idx)))
					tab.Clear(idx)
					defer tab.Clear(idx)
					gen := tab.slots[idx].Load() & genMask
					c.setup(e, tab, idx)

					var tok SlotToken
					var ok bool
					if handle {
						tok, ok = e.TryFastH(NewReaderWithID(id))
					} else {
						tok, ok = e.TryPublish(id)
					}
					wantTok := SlotToken(0)
					if c.fast {
						wantTok = makeSlotToken(idx, uint32(gen))
					}
					if ok != c.fast || tok != wantTok {
						t.Errorf("token %#x, %v; want %#x, %v", tok, ok, wantTok, c.fast)
					}
					if w := tab.slots[idx].Load(); w != c.slot(e, gen) {
						t.Errorf("slot word %#x, want %#x", w, c.slot(e, gen))
					}
					if w := e.rbias.Load(); w != c.rbias(want) {
						t.Errorf("rbias %#x, want %#x", w, c.rbias(want))
					}
					wantCount := Snapshot{}
					if stats {
						wantCount = c.count
					}
					if got := st.Snapshot(); got != wantCount {
						t.Errorf("counters %s, want %s", got, wantCount)
					}
				})
			}
		}
	}
}
