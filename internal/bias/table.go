// Package bias implements the reusable BRAVO biasing protocol (paper §3,
// Listing 1): the RBias word, the visible readers table with its
// publish/recheck/undo fast path and revocation scan, the bias-enabling
// policies with their inhibit arbitration, the optional event counters, and
// the per-goroutine reader handles that cache table slots.
//
// The package is the single home of the protocol. Lock implementations —
// the user-space wrapper (internal/core) and the kernel rwsem analogue
// (internal/rwsem) — embed an Engine and keep only their substrate-specific
// acquisition order around it; neither carries a private copy of the
// rbias/inhibit/revocation logic.
package bias

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"github.com/bravolock/bravo/internal/hash"
	"github.com/bravolock/bravo/internal/locks/seq"
	"github.com/bravolock/bravo/internal/spin"
)

// DefaultTableSize is the paper's table size: "In all our experiments we
// sized the table at 4096 entries" (§3). One 8-byte word per slot is the
// paper's 32KB, shared by every lock and thread in the address space; the
// unlock guard's generation lives in the low bits of the same word.
const DefaultTableSize = 4096

// DefaultRowLen is the BRAVO-2D sector length: the paper's preferred
// embodiment partitions the table into contiguous rows of 256 slots aligned
// on cache-sector boundaries (§7).
const DefaultRowLen = 256

// summarySectors is the number of sectors a table is divided into for the
// per-lock occupancy summary kept in the high bits of Engine.rbias: a
// revocation scans only the sectors some fast reader of that lock has
// published in since the previous revocation. 16 is the most the word holds
// beside the bias bit (a 32-bit word, a power-of-two count) and, at the
// default 4,096 slots, makes a sector the paper's own §7 sector of 256
// slots. Confirmed by alternating paired lock-read runs (15 s, 2 CPUs, two
// readers marking two sectors; every run is in CHANGES.md, PR 17): write p50
// 17.7 µs with the full scan, 1.43 µs at 8 sectors, 1.27 µs at 16 (lower in
// 6/6 pairs), throughput and read p50 indistinguishable. A constant, not an
// option: no caller can know a better value than the word's width.
const summarySectors = 16

// Table is a visible readers table. A slot is one word, identity<<genBits |
// generation: the identity is zero or that of a reader-held BRAVO lock, and
// the generation counts how often the slot has been emptied, so a token from
// an earlier publication does not match the word again even if another reader
// of the same lock has since republished there — the ABA case a bare slot
// compare cannot see (ClearOwned). Slots are deliberately unpadded 8-byte
// words, as in the paper: near-collision false sharing is part of the
// design's cost model, and the 2D layout exists to mitigate it.
//
// Identities are lock addresses used only for equality comparison, never
// dereferenced, so a Table never keeps a lock alive nor touches freed
// memory: a slot holds a lock's identity only while a reader is inside that
// lock's critical section, which implies the lock is live.
type Table struct {
	slots []atomic.Uint64
	mask  uint32
	// rows/rowLen describe the 2D sectored geometry; rows == 0 means the
	// flat 1D layout of Listing 1.
	rows   uint32
	rowLen uint32
	// sectorShift maps a slot index to its occupancy-summary sector
	// (idx >> sectorShift). A flat table is cut into summarySectors
	// contiguous runs, a 2D table groups whole rows (a revocation visits one
	// slot per row, so the row is the unit worth skipping), and a table with
	// fewer slots or rows than summarySectors gets one per sector.
	sectorShift uint32
}

// shared is the process-wide default table (Listing 1's VisibleReaders).
var shared = NewTable(DefaultTableSize)

// SharedTable returns the process-wide visible readers table that locks use
// unless configured otherwise.
func SharedTable() *Table { return shared }

// NewTable returns a flat (1D) visible readers table with size slots.
// size must be a positive power of two.
func NewTable(size int) *Table {
	if size <= 0 || size&(size-1) != 0 {
		panic(fmt.Sprintf("bias: table size %d is not a positive power of two", size))
	}
	return &Table{
		slots:       make([]atomic.Uint64, size),
		mask:        uint32(size - 1),
		sectorShift: log2(size / min(size, summarySectors)),
	}
}

// NewTable2D returns a BRAVO-2D sectored table with rows rows of rowLen
// slots each. Readers select a row by CPU identity and a column by lock
// hash; revocation scans a single column. Both dimensions must be positive
// powers of two.
func NewTable2D(rows, rowLen int) *Table {
	if rows <= 0 || rows&(rows-1) != 0 || rowLen <= 0 || rowLen&(rowLen-1) != 0 {
		panic(fmt.Sprintf("bias: 2D table geometry %dx%d is not power-of-two", rows, rowLen))
	}
	return &Table{
		slots:       make([]atomic.Uint64, rows*rowLen),
		mask:        uint32(rows*rowLen - 1),
		rows:        uint32(rows),
		rowLen:      uint32(rowLen),
		sectorShift: log2(rowLen) + log2(rows/min(rows, summarySectors)),
	}
}

// log2 returns the exponent of a power of two.
func log2(x int) uint32 { return uint32(bits.TrailingZeros(uint(x))) }

// Size returns the number of slots.
func (t *Table) Size() int { return len(t.slots) }

// Sectored reports whether the table uses the BRAVO-2D layout.
func (t *Table) Sectored() bool { return t.rows != 0 }

// Index maps (lock identity, reader identity) to a slot index — the
// Hash(L, Self) of Listing 1 line 13.
func (t *Table) Index(lockID uintptr, selfID uint64) uint32 {
	if t.rows != 0 {
		// BRAVO-2D: the caller's CPU picks the row, the lock picks the
		// column (§7: "use the caller's CPUID to identify a sector, and
		// then a hash function on the lock address to identify a slot
		// within that sector").
		row := uint32(hash.Mix64(selfID)) & (t.rows - 1)
		col := t.column(lockID)
		return row*t.rowLen + col
	}
	return hash.Index(lockID, selfID, uint32(len(t.slots)))
}

// column returns the 2D column assigned to a lock.
func (t *Table) column(lockID uintptr) uint32 {
	return hash.Mix32(uint32(uint64(lockID)>>4)) & (t.rowLen - 1)
}

// TryPublishAt attempts to install id into slot idx, returning whether
// publication succeeded and, when it did, the slot's generation. The CAS is
// the fast path's single atomic (Listing 1 line 14) — and, with a slot index
// cached on a reader handle, the steady state's only locked instruction; the
// load before it reads the line the CAS takes anyway. The installed word
// keeps the loaded generation, which must travel with the acquisition to its
// release: the winner captures exactly the word its release will compare. A
// CAS that loses to a publish-and-clear in between reports a collision: the
// slot was occupied in that window.
func (t *Table) TryPublishAt(idx uint32, id uintptr) (gen uint32, ok bool) {
	s := &t.slots[idx]
	w := s.Load()
	return uint32(w), w>>genBits == 0 && s.CompareAndSwap(w, uint64(id)<<genBits|w)
}

// ClearOwned empties slot idx on behalf of the reader that published id
// there and captured gen — the always-on unbalanced-unlock guard (Shahare &
// Chabbi's owner check, applied to BRAVO's slot-passing unlock) for a release
// with no hold ledger: the anonymous RUnlock and settle's undo. The clear is
// one CAS from the word the publication installed to the next generation, and
// its failure is the guard: check and clear are one atomic decision, so of
// any number of racing releases of one token exactly one succeeds, the rest
// panic, and none can erase a later publication. A token replayed after an
// exact multiple of 2^genBits clears of its slot matches again: a misuse
// detector, not a security boundary.
func (t *Table) ClearOwned(idx, gen uint32, id uintptr) {
	gen &= genMask
	if !t.slots[idx].CompareAndSwap(uint64(id)<<genBits|uint64(gen), uint64(gen+1)&genMask) {
		t.unbalanced(idx, id)
	}
}

// ReleaseHeld is ClearOwned for a release a reader handle's ledger has
// already matched to its own publication: a compare and a plain store
// (seq.Store), Listing 1's `*slot = null`. Only the owner writes an occupied
// slot (publication CASes only from empty, revocation only loads) and a
// Reader is confined to one goroutine, so the word cannot change between the
// load and the store. The compare still refuses, as ClearOwned does, a token
// whose word is gone: a copied handle released twice, a forged generation.
// x86-TSO orders the store after the critical section; elsewhere and under
// -race it is an atomic store.
func (t *Table) ReleaseHeld(idx, gen uint32, id uintptr) {
	gen &= genMask
	s := &t.slots[idx]
	if s.Load() != uint64(id)<<genBits|uint64(gen) {
		t.unbalanced(idx, id)
	}
	seq.Store(s, uint64(gen+1)&genMask)
}

// unbalanced names the release the slot's compare refused. Cold and out of
// line: the re-load only chooses the message.
//
//go:noinline
func (t *Table) unbalanced(idx uint32, id uintptr) {
	if t.Load(idx) != id {
		panic("bias: unbalanced fast-path RUnlock (double unlock, unlock without lock, or wrong lock)")
	}
	// The slot holds id again, from a newer publication.
	panic("bias: unbalanced fast-path RUnlock (stale read token)")
}

// Clear empties slot idx unconditionally (Listing 1 line 31, without the
// ownership check). Test and diagnostic hook; production unlock paths go
// through ReleaseHeld or ClearOwned. It preserves the generation invariant —
// every id→0 transition bumps — so tokens spanning a forced clear are
// correctly detected as stale.
func (t *Table) Clear(idx uint32) {
	s := &t.slots[idx]
	for {
		w := s.Load()
		if s.CompareAndSwap(w, (w+1)&genMask) {
			return
		}
	}
}

// Load returns the current occupant of slot idx (testing/diagnostics).
func (t *Table) Load(idx uint32) uintptr {
	return uintptr(t.slots[idx].Load() >> genBits)
}

// sector returns the occupancy-summary sector slot idx belongs to.
func (t *Table) sector(idx uint32) uint32 { return idx >> t.sectorShift }

// sectors returns how many sectors the table has (at most summarySectors).
func (t *Table) sectors() uint32 { return t.sector(t.mask) + 1 }

// WaitEmpty performs the full revocation scan of Listing 1 lines 42–44: it
// visits every slot that could hold id (all slots in 1D mode, one column in
// 2D mode) and waits for any matching slot to drain. It returns the number
// of slots scanned and the number of conflicting fast-path readers awaited.
// Engine.Revoke scans only the sectors its occupancy summary names; this
// all-sectors form is the primitive the paper's ns/slot figure measures.
func (t *Table) WaitEmpty(id uintptr) (scanned, conflicts int) {
	return t.waitEmptyIn(id, 1<<t.sectors()-1)
}

// waitEmptyIn is the revocation scan restricted to the sectors whose bit
// (1 << sector) is set in sectors.
func (t *Table) waitEmptyIn(id uintptr, sectors uint32) (scanned, conflicts int) {
	if t.rows != 0 {
		col := t.column(id)
		for row := uint32(0); row < t.rows; row++ {
			idx := row*t.rowLen + col
			if sectors&(1<<t.sector(idx)) == 0 {
				continue
			}
			scanned++
			conflicts += t.awaitSlot(idx, id)
		}
		return scanned, conflicts
	}
	key := uint64(id) << genBits
	for ; sectors != 0; sectors &= sectors - 1 {
		lo := uint32(bits.TrailingZeros32(sectors)) << t.sectorShift
		sec := t.slots[lo : lo+1<<t.sectorShift]
		scanned += len(sec)
		for i := scanFor(sec, key); i < len(sec); i += 1 + scanFor(sec[i+1:], key) {
			conflicts += t.awaitSlot(lo+uint32(i), id)
		}
	}
	return scanned, conflicts
}

// awaitSlot waits for slot idx to stop holding id and reports how many
// conflicting readers that was (0 or 1).
func (t *Table) awaitSlot(idx uint32, id uintptr) int {
	if t.Load(idx) != id {
		return 0
	}
	var b spin.Backoff
	for t.Load(idx) == id {
		b.Once()
	}
	return 1
}

// Occupancy returns the number of non-empty slots; used to validate the
// balls-into-bins occupancy model.
func (t *Table) Occupancy() int {
	n := 0
	for i := range t.slots {
		if t.slots[i].Load()>>genBits != 0 {
			n++
		}
	}
	return n
}
