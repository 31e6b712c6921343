package bias

import (
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/xrand"
)

// summary returns e's occupancy summary: bit s set ⇔ sector s marked.
func summary(e *Engine) uint32 { return e.rbias.Load() >> sectorBase }

// engineOn returns a biased engine with stats on the given table.
func engineOn(t *testing.T, tab *Table) (*Engine, *Stats) {
	t.Helper()
	return biasedEngine(t, func(e *Engine) { e.SetTable(tab) })
}

// startRevoke runs a revocation on its own goroutine; the channel closes
// when it returns.
func startRevoke(e *Engine) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		e.Revoke()
		close(done)
	}()
	return done
}

// stillRevoking fails the test if the revocation has returned: a fast reader
// is published, so returning means the scan missed it.
func stillRevoking(t *testing.T, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
		t.Fatal("revocation finished while a fast reader was published: reader missed")
	case <-time.After(20 * time.Millisecond):
	}
}

// revoked waits for the revocation to return.
func revoked(t *testing.T, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("revocation did not finish after the readers left")
	}
}

// revokeBlocksUntil starts a revocation, checks that it waits while release
// has not run, runs release, and returns once the revocation has finished.
func revokeBlocksUntil(t *testing.T, e *Engine, release func()) {
	t.Helper()
	done := startRevoke(e)
	stillRevoking(t, done)
	release()
	revoked(t, done)
}

func TestSummaryPublishMarksSectorAndRevokeScansIt(t *testing.T) {
	tab := NewTable(DefaultTableSize)
	e, st := engineOn(t, tab)
	if summary(e) != 0 {
		t.Fatalf("fresh summary = %#x", summary(e))
	}
	tok, ok := e.TryFast(42)
	if !ok {
		t.Fatal("fast path failed")
	}
	s := tab.sector(tok.Index())
	if summary(e) != 1<<s {
		t.Fatalf("summary = %#x after publishing in sector %d", summary(e), s)
	}
	revokeBlocksUntil(t, e, func() { e.ClearFast(tok) })
	if got, want := st.RevokeScanned.Load(), uint64(DefaultTableSize/summarySectors); got != want {
		t.Fatalf("revocation scanned %d slots, want the reader's sector only (%d)", got, want)
	}
	if st.RevokeWaits.Load() != 1 {
		t.Fatalf("revocation awaited %d readers, want 1", st.RevokeWaits.Load())
	}
	if w := e.rbias.Load(); w != 0 {
		t.Fatalf("rbias = %#x after revocation: bias off must mean word == 0", w)
	}
}

// TestSummaryRemarkedAfterRevokeAndReenable drives the ABA case: a reader
// whose knowledge of its sector bit predates a revoke + re-enable. Whatever
// it knew, the recheck after its late publication sees the bit gone and
// re-marks, so the next revocation finds it.
func TestSummaryRemarkedAfterRevokeAndReenable(t *testing.T) {
	tab := NewTable(DefaultTableSize)
	e, st := engineOn(t, tab)
	r := NewReaderWithID(77)
	tok, ok := e.TryFastH(r) // caches the slot, marks the sector
	if !ok {
		t.Fatal("fast path failed")
	}
	s := tab.sector(tok.Index())
	e.ReleaseFastAt(r, tok)
	e.Revoke() // collects and clears the summary
	e.forceBias(true)
	if summary(e) != 0 {
		t.Fatalf("summary = %#x after revoke + re-enable, want 0", summary(e))
	}
	tok, ok = e.TryFastH(r) // late publish at the cached slot
	if !ok {
		t.Fatal("fast path failed after re-enable")
	}
	if summary(e) != 1<<s {
		t.Fatalf("summary = %#x after the late publish, want sector %d re-marked", summary(e), s)
	}
	e.forceBias(true)
	if summary(e) != 1<<s {
		t.Fatalf("forceBias(true) changed the summary to %#x", summary(e))
	}
	before := st.RevokeScanned.Load()
	revokeBlocksUntil(t, e, func() { e.ReleaseFastAt(r, tok) })
	if got := st.RevokeScanned.Load() - before; got != DefaultTableSize/summarySectors {
		t.Fatalf("second revocation scanned %d slots, want one sector", got)
	}
}

func TestSummaryGeometries(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tab     *Table
		sectors int
		scanned uint64 // slots one marked sector costs a revocation
	}{
		{"2D 8x32: row = sector", NewTable2D(8, 32), 8, 1},
		{"2D 64x16: 4 rows per sector", NewTable2D(64, 16), 16, 4},
		{"private 16 slots: slot = sector", NewTable(16), 16, 1},
		{"private 2 slots", NewTable(2), 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if int(tc.tab.sectors()) != tc.sectors {
				t.Fatalf("sectors = %d, want %d", int(tc.tab.sectors()), tc.sectors)
			}
			e, st := engineOn(t, tc.tab)
			seen := uint32(0)
			for id := uint64(0); id < 256; id++ {
				tok, ok := e.TryFast(id)
				if !ok {
					t.Fatalf("id %d: fast path failed on an empty table", id)
				}
				idx := tok.Index()
				s := tc.tab.sector(idx)
				if int(s) >= tc.sectors {
					t.Fatalf("slot %d maps to sector %d of %d", idx, s, tc.sectors)
				}
				if tc.tab.Sectored() && s != idx/tc.tab.rowLen*uint32(tc.sectors)/tc.tab.rows {
					t.Fatalf("slot %d (row %d) maps to sector %d", idx, idx/tc.tab.rowLen, s)
				}
				if summary(e) != 1<<s {
					t.Fatalf("id %d: summary = %#x, want sector %d only", id, summary(e), s)
				}
				before := st.RevokeScanned.Load()
				if id < 2 {
					revokeBlocksUntil(t, e, func() { e.ClearFast(tok) })
				} else {
					e.ClearFast(tok)
					e.Revoke()
				}
				if got := st.RevokeScanned.Load() - before; got != tc.scanned {
					t.Fatalf("id %d: revocation scanned %d slots, want %d", id, got, tc.scanned)
				}
				e.MaybeEnable()
				seen |= 1 << s
				if seen == 1<<tc.sectors-1 && id >= 8 {
					break
				}
			}
			if seen != 1<<tc.sectors-1 {
				t.Fatalf("256 identities reached sectors %#x of %d", seen, tc.sectors)
			}
		})
	}
}

func TestSummarySharedByHandleAndAnonymousReaders(t *testing.T) {
	tab := NewTable(DefaultTableSize)
	e, st := engineOn(t, tab)
	r := NewReaderWithID(1)
	htok, ok := e.TryFastH(r)
	if !ok {
		t.Fatal("handle fast path failed")
	}
	hs := tab.sector(htok.Index())
	anon := uint64(2)
	for tab.sector(tab.Index(e.ID(), anon)) == hs {
		anon++
	}
	atok, ok := e.TryFast(anon)
	if !ok {
		t.Fatal("anonymous fast path failed")
	}
	as := tab.sector(atok.Index())
	if summary(e) != 1<<hs|1<<as {
		t.Fatalf("summary = %#x, want sectors %d and %d", summary(e), hs, as)
	}
	// The scan must wait for each of them in turn, whichever it meets first.
	done := startRevoke(e)
	stillRevoking(t, done)
	if hs < as {
		e.ReleaseFastAt(r, htok)
	} else {
		e.ClearFast(atok)
	}
	stillRevoking(t, done)
	if hs < as {
		e.ClearFast(atok)
	} else {
		e.ReleaseFastAt(r, htok)
	}
	revoked(t, done)
	if st.RevokeScanned.Load() != 2*DefaultTableSize/summarySectors || st.RevokeWaits.Load() != 2 {
		t.Fatalf("revocation: %s, want two sectors scanned and two readers awaited", st.Snapshot())
	}
}

// TestSummaryRandomizedIndexDegradesToFullMask: readers drawing a random
// identity per acquisition publish all over the table, so their marks grow to
// the full mask and a revocation scans every slot.
func TestSummaryRandomizedIndexDegradesToFullMask(t *testing.T) {
	tab := NewTable(DefaultTableSize)
	e, st := engineOn(t, tab)
	full := uint32(1<<summarySectors - 1)
	rng := xrand.NewXorShift64(1)
	for i := 0; i < 4096 && summary(e) != full; i++ {
		tok, ok := e.TryFast(rng.Next())
		if !ok {
			t.Fatal("fast path failed on an empty table")
		}
		if summary(e)&(1<<tab.sector(tok.Index())) == 0 {
			t.Fatalf("published in sector %d with summary %#x", tab.sector(tok.Index()), summary(e))
		}
		e.ClearFast(tok)
	}
	if summary(e) != full {
		t.Fatalf("summary = %#x after 4096 random identities, want the full mask", summary(e))
	}
	tok, ok := e.TryFast(rng.Next())
	if !ok {
		t.Fatal("fast path failed")
	}
	revokeBlocksUntil(t, e, func() { e.ClearFast(tok) })
	if st.RevokeScanned.Load() != DefaultTableSize {
		t.Fatalf("full-mask revocation scanned %d slots, want %d", st.RevokeScanned.Load(), DefaultTableSize)
	}
}
