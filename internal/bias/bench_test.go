package bias

import (
	"fmt"
	"testing"
)

// BenchmarkRevoke is a revocation of a reader-free lock whose summary names
// the given number of sectors of the default 4,096-slot table: the Swap, the
// two clock reads, the policy feedback, and 256 slots of scan per sector.
// sectors=16 is the full-table scan every write paid before the summary.
// foreign is sectors=2 with another lock's identity in every 16-slot block,
// so the scan's block filter never skips and every block is compared.
func BenchmarkRevoke(b *testing.B) {
	for _, sectors := range []int{0, 1, 2, summarySectors} {
		b.Run(fmt.Sprintf("sectors=%d", sectors), func(b *testing.B) { benchRevoke(b, sectors, false) })
	}
	b.Run("foreign", func(b *testing.B) { benchRevoke(b, 2, true) })
}

func benchRevoke(b *testing.B, sectors int, foreign bool) {
	e, _ := newEngine(NeverPolicy{})
	e.SetStats(nil)
	if foreign {
		tab := e.conf().table
		for idx := 0; idx < tab.Size(); idx += 16 {
			tab.TryPublishAt(uint32(idx), e.ID()+64)
		}
	}
	word := uint32(biasBit | (1<<sectors-1)<<sectorBase)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.rbias.Store(word)
		e.Revoke()
	}
}

// BenchmarkRLockHFast is the steady-state handle fast path: the bias check,
// one CAS at the cached slot, the recheck that must see bias and the sector
// bit together, and the owned clear.
func BenchmarkRLockHFast(b *testing.B) {
	e, _ := newEngine(AlwaysPolicy{})
	e.SetStats(nil)
	e.MaybeEnable()
	r := NewReaderWithID(77)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok, ok := e.TryFastH(r)
		if !ok {
			b.Fatal("fast path failed")
		}
		e.ReleaseFastAt(r, tok)
	}
}

// BenchmarkRLockHDefault is BenchmarkRLockHFast on the engine every
// bravo.New lock runs: no configuration block, the shared table and the
// inline inhibit rule, so the probe publishes with no call and no counter.
func BenchmarkRLockHDefault(b *testing.B) {
	e := &Engine{}
	e.Init()
	e.MaybeEnable()
	r := NewReaderWithID(77)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok, ok := e.TryFastH(r)
		if !ok {
			b.Fatal("fast path failed")
		}
		e.ReleaseFastAt(r, tok)
	}
}

// BenchmarkRLockHCollided is a handle whose home slot a foreign identity
// holds, so every attempt diverts: the bias check, the probe's load of the
// occupied slot, and the collision count. It is the traffic a per-handle
// collision memory would serve.
func BenchmarkRLockHCollided(b *testing.B) {
	e, _ := newEngine(AlwaysPolicy{})
	e.SetStats(nil)
	e.MaybeEnable()
	r := NewReaderWithID(77)
	if _, ok := e.Table().TryPublishAt(e.Table().Index(e.ID(), 77), uintptr(0xF00D0)); !ok {
		b.Fatal("setup publish failed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.TryFastH(r); ok {
			b.Fatal("fast path through an occupied home slot")
		}
	}
}
