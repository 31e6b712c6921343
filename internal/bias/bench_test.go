package bias

import (
	"fmt"
	"testing"
)

// BenchmarkRevoke is a revocation of a reader-free lock whose summary names
// the given number of sectors of the default 4,096-slot table: the Swap, the
// two clock reads, the policy feedback, and 256 slots of scan per sector.
// sectors=16 is the full-table scan every write paid before the summary.
func BenchmarkRevoke(b *testing.B) {
	for _, sectors := range []int{0, 1, 2, summarySectors} {
		b.Run(fmt.Sprintf("sectors=%d", sectors), func(b *testing.B) {
			e, _ := newEngine(NeverPolicy{})
			e.SetStats(nil)
			word := uint32(biasBit | (1<<sectors-1)<<sectorBase)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.rbias.Store(word)
				e.Revoke()
			}
		})
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
