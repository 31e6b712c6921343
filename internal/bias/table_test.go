package bias

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math/bits"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestNewTableValidation(t *testing.T) {
	for _, bad := range []int{0, -1, 3, 100, 4095} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTable(%d) did not panic", bad)
				}
			}()
			NewTable(bad)
		}()
	}
	if got := NewTable(8).Size(); got != 8 {
		t.Errorf("Size = %d, want 8", got)
	}
}

func TestNewTable2DValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 256}, {3, 256}, {4, 0}, {4, 100}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTable2D(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			NewTable2D(bad[0], bad[1])
		}()
	}
	tab := NewTable2D(4, 256)
	if !tab.Sectored() || tab.Size() != 1024 {
		t.Errorf("2D table misconfigured: sectored=%v size=%d", tab.Sectored(), tab.Size())
	}
}

func TestSharedTableGeometry(t *testing.T) {
	if SharedTable().Size() != DefaultTableSize {
		t.Fatalf("shared table has %d slots, want %d (paper §3)", SharedTable().Size(), DefaultTableSize)
	}
	if SharedTable().Sectored() {
		t.Fatal("shared table must use the flat Listing 1 layout")
	}
}

func TestPublishClearRoundTrip(t *testing.T) {
	tab := NewTable(64)
	id := uintptr(0xdeadbeef0 & uint64(^uintptr(0))) // 0xeadbeef0 on a 32-bit port
	idx := tab.Index(id, 42)
	gen, ok := tab.TryPublishAt(idx, id)
	if !ok {
		t.Fatal("publish into empty slot failed")
	}
	if tab.Load(idx) != id {
		t.Fatal("slot does not hold the published identity")
	}
	if _, ok := tab.TryPublishAt(idx, 0xabc0); ok {
		t.Fatal("publish into occupied slot succeeded (collision must fail)")
	}
	tab.ClearOwned(idx, gen, id)
	if tab.Load(idx) != 0 {
		t.Fatal("slot not cleared by owned clear")
	}
	if _, ok := tab.TryPublishAt(idx, id); !ok {
		t.Fatal("republish after owned clear failed")
	}
	tab.Clear(idx)
	if tab.Load(idx) != 0 {
		t.Fatal("slot not cleared")
	}
	if tab.Occupancy() != 0 {
		t.Fatal("occupancy nonzero after clear")
	}
}

func TestIndexInBounds(t *testing.T) {
	tab1 := NewTable(4096)
	tab2 := NewTable2D(64, 256)
	f := func(lock uint64, self uint64) bool {
		return tab1.Index(uintptr(lock), self) < 4096 && tab2.Index(uintptr(lock), self) < 64*256
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func Test2DColumnFixedPerLock(t *testing.T) {
	// BRAVO-2D's revocation scans one column, so every identity must map a
	// given lock to the same column regardless of the thread.
	tab := NewTable2D(16, 256)
	lock := uintptr(0xc000001230 & uint64(^uintptr(0)))
	col := tab.Index(lock, 0) % tab.rowLen
	f := func(self uint64) bool {
		return tab.Index(lock, self)%tab.rowLen == col
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func Test2DRowSelectedByThread(t *testing.T) {
	// Distinct thread identities should spread over rows.
	tab := NewTable2D(16, 256)
	lock := uintptr(0xc000001230 & uint64(^uintptr(0)))
	rows := map[uint32]bool{}
	for id := uint64(0); id < 64; id++ {
		rows[tab.Index(lock, id)/tab.rowLen] = true
	}
	if len(rows) < 8 {
		t.Errorf("64 identities hit only %d/16 rows", len(rows))
	}
}

func TestWaitEmptyScanCounts(t *testing.T) {
	tab := NewTable(256)
	scanned, conflicts := tab.WaitEmpty(uintptr(0x1230))
	if scanned != 256 || conflicts != 0 {
		t.Fatalf("1D empty scan: scanned=%d conflicts=%d, want 256, 0", scanned, conflicts)
	}
	tab2 := NewTable2D(8, 32)
	scanned, conflicts = tab2.WaitEmpty(uintptr(0x1230))
	if scanned != 8 || conflicts != 0 {
		t.Fatalf("2D empty scan: scanned=%d conflicts=%d, want 8 (one per row), 0", scanned, conflicts)
	}
}

func TestWaitEmptyAwaitsConflicts(t *testing.T) {
	tab := NewTable(64)
	id := uintptr(0x5550)
	idx := tab.Index(id, 7)
	if _, ok := tab.TryPublishAt(idx, id); !ok {
		t.Fatal("publish failed")
	}
	done := make(chan int)
	go func() {
		_, conflicts := tab.WaitEmpty(id)
		done <- conflicts
	}()
	// Give the scanner time to reach the occupied slot and block on it.
	time.Sleep(30 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("waitEmpty returned while a reader was published")
	default:
	}
	tab.Clear(idx)
	if conflicts := <-done; conflicts != 1 {
		t.Fatalf("conflicts = %d, want 1", conflicts)
	}
}

func TestWaitEmptyIgnoresOtherLocks(t *testing.T) {
	tab := NewTable(64)
	other := uintptr(0x7770)
	if _, ok := tab.TryPublishAt(3, other); !ok {
		t.Fatal("publish failed")
	}
	scanned, conflicts := tab.WaitEmpty(uintptr(0x5550))
	if scanned != 64 || conflicts != 0 {
		t.Fatalf("scan over foreign entries: scanned=%d conflicts=%d", scanned, conflicts)
	}
	tab.Clear(3)
}

func TestOccupancyCountsDistinctSlots(t *testing.T) {
	tab := NewTable(64)
	tab.TryPublishAt(1, 0x10)
	tab.TryPublishAt(5, 0x20)
	tab.TryPublishAt(9, 0x10) // same lock in two slots (two fast readers)
	if got := tab.Occupancy(); got != 3 {
		t.Fatalf("occupancy = %d, want 3", got)
	}
}

// panics reports whether f panicked.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// TestClearOwnedRacingDoubleUnlock releases one token from two goroutines at
// once, behind a spin barrier so the two clears land within instructions of
// each other. The clearing CAS is check and clear in one decision, so exactly
// one release returns and the other panics, every round — where four separate
// atomics (two loads, an add, a store) let both pass, which the race job's
// slower interleavings showed in thousands of rounds.
func TestClearOwnedRacingDoubleUnlock(t *testing.T) {
	tab := NewTable(8)
	const idx, id, rounds = 3, uintptr(0xC0DE0), 20000
	var round, gen, returned, finished atomic.Uint32
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := uint32(1); r <= rounds; r++ {
				for round.Load() != r {
					runtime.Gosched()
				}
				if !panics(func() { tab.ClearOwned(idx, gen.Load(), id) }) {
					returned.Add(1)
				}
				finished.Add(1)
			}
		}()
	}
	for r := uint32(1); r <= rounds; r++ {
		g, ok := tab.TryPublishAt(idx, id)
		if !ok || g != (r-1)&genMask {
			t.Errorf("round %d: publish = (%d, %v), want generation %d", r, g, ok, (r-1)&genMask)
		}
		gen.Store(g)
		returned.Store(0)
		finished.Store(0)
		round.Store(r)
		for finished.Load() != 2 {
			runtime.Gosched()
		}
		if n := returned.Load(); n != 1 || tab.Load(idx) != 0 {
			t.Errorf("round %d: %d of two releases of one token returned (want 1), slot holds %#x", r, n, tab.Load(idx))
		}
	}
	wg.Wait()
}

// releases are the two owned releases of a published slot: the anonymous
// path's CAS and the handle path's compare and plain store.
var releases = []struct {
	name    string
	release func(tab *Table, idx, gen uint32, id uintptr)
}{
	{"ClearOwned", (*Table).ClearOwned},
	{"ReleaseHeld", (*Table).ReleaseHeld},
}

// TestSlotGenerationWrap runs one slot through more than 2^genBits
// publish/release cycles, through each owned release: the generation never
// spills into the identity bits, it increments modulo 2^genBits, and a token
// kept from an early cycle is refused at every later one except the exact
// wrap.
func TestSlotGenerationWrap(t *testing.T) {
	for _, rel := range releases {
		t.Run(rel.name, func(t *testing.T) {
			tab := NewTable(8)
			const idx, id, keptCycle = 5, uintptr(1)<<(bits.UintSize-genBits) - 8, 1
			var kept uint32
			for cycle := uint32(0); cycle < 1<<genBits+2; cycle++ {
				gen, ok := tab.TryPublishAt(idx, id)
				if !ok || gen != cycle&genMask {
					t.Fatalf("cycle %d: publish = (%d, %v), want generation %d", cycle, gen, ok, cycle&genMask)
				}
				if got := tab.Load(idx); got != id {
					t.Fatalf("cycle %d: slot identity %#x, want %#x", cycle, got, id)
				}
				switch {
				case cycle == keptCycle:
					kept = gen
				case cycle > keptCycle && (cycle-keptCycle)&genMask == 0:
					if gen != kept {
						t.Fatalf("cycle %d: generation %d, want the kept token's %d back (exact wrap)", cycle, gen, kept)
					}
				case cycle > keptCycle:
					if !panics(func() { rel.release(tab, idx, kept, id) }) {
						t.Fatalf("cycle %d: token kept from cycle %d cleared the slot", cycle, keptCycle)
					}
				}
				rel.release(tab, idx, gen, id)
				if got := tab.Load(idx); got != 0 {
					t.Fatalf("cycle %d: slot identity %#x after the owned release", cycle, got)
				}
			}
		})
	}
}

// TestReleaseHeldRefusesAsClearOwned drives each unbalanced release at the
// table through both owned releases: ReleaseHeld's compare must refuse
// exactly what ClearOwned's CAS refuses, with the same message, and leave
// the slot word as it found it.
func TestReleaseHeldRefusesAsClearOwned(t *testing.T) {
	const idx, id, other = 3, uintptr(0xC0DE0), uintptr(0xBEEF0)
	const stale = "bias: unbalanced fast-path RUnlock (stale read token)"
	const gone = "bias: unbalanced fast-path RUnlock (double unlock, unlock without lock, or wrong lock)"
	for _, c := range []struct {
		name string
		// setup leaves the slot as the unbalanced release finds it and
		// returns the generation and identity that release hands over.
		setup func(tab *Table) (gen uint32, id uintptr)
		want  string
	}{{
		name: "double release",
		setup: func(tab *Table) (uint32, uintptr) {
			gen, _ := tab.TryPublishAt(idx, id)
			tab.ClearOwned(idx, gen, id)
			return gen, id
		},
		want: gone,
	}, {
		name: "stale generation",
		setup: func(tab *Table) (uint32, uintptr) {
			gen, _ := tab.TryPublishAt(idx, id)
			tab.ClearOwned(idx, gen, id)
			tab.TryPublishAt(idx, id)
			return gen, id
		},
		want: stale,
	}, {
		name: "wrong identity",
		setup: func(tab *Table) (uint32, uintptr) {
			gen, _ := tab.TryPublishAt(idx, id)
			return gen, other
		},
		want: gone,
	}, {
		name:  "empty slot",
		setup: func(*Table) (uint32, uintptr) { return 0, id },
		want:  gone,
	}} {
		for _, rel := range releases {
			tab := NewTable(8)
			gen, rid := c.setup(tab)
			before := tab.slots[idx].Load()
			msg := panicMessage(func() { rel.release(tab, idx, gen, rid) })
			if msg != c.want {
				t.Errorf("%s through %s: panic %q, want %q", c.name, rel.name, msg, c.want)
			}
			if after := tab.slots[idx].Load(); after != before {
				t.Errorf("%s through %s: slot word %#x → %#x, want it unchanged", c.name, rel.name, before, after)
			}
		}
	}
}

// TestCheckID: an address that would spill out of the slot word's identity
// bits is refused before any slot sees it; every address Go hands out fits.
func TestCheckID(t *testing.T) {
	e, _ := newEngine(NeverPolicy{}) // Init ran checkID on a real heap address
	checkID(e.ID())
	if bits.UintSize < 64 {
		t.Skip("every 32-bit address fits")
	}
	forged := uintptr(1)
	forged <<= bits.UintSize - genBits // 64 - genBits, and vets on a 32-bit port
	checkID(forged - 1)
	if !panics(func() { checkID(forged) }) {
		t.Fatalf("checkID(%#x) did not panic: the identity has more than %d bits", forged, 64-genBits)
	}
}

// TestTableFootprint: the default table is one 8-byte word per slot — the
// paper's 32 KB — and Table keeps no second per-slot array beside it.
func TestTableFootprint(t *testing.T) {
	v := reflect.ValueOf(NewTable(DefaultTableSize)).Elem()
	slices := 0
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Slice {
			continue
		}
		slices++
		if f.Len() != DefaultTableSize || f.Type().Elem().Size() != 8 {
			t.Errorf("Table.%s: %d elements of %d bytes, want %d of 8", v.Type().Field(i).Name, f.Len(), f.Type().Elem().Size(), DefaultTableSize)
		}
	}
	if slices != 1 {
		t.Errorf("Table has %d per-slot arrays, want 1", slices)
	}
}

// TestSlotInstructionBudget pins the fast path's cost in the source: publish
// and the anonymous owned clear are one CompareAndSwap each, the handle's
// release none, and none of them any other read-modify-write or atomic store
// (each is a LOCK-prefixed instruction or an XCHG on amd64). ReleaseHeld's
// one store is seq.Store, a plain MOVQ on amd64. The cold panic path has no
// atomic at all.
func TestSlotInstructionBudget(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "table.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	type budget struct{ cas, seqStore int }
	want := map[string]budget{
		"TryPublishAt": {cas: 1},
		"ClearOwned":   {cas: 1},
		"ReleaseHeld":  {seqStore: 1},
		"unbalanced":   {},
	}
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		w, ok := want[fn.Name.Name]
		if !ok {
			continue
		}
		delete(want, fn.Name.Name)
		var got budget
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, _ := n.(*ast.CallExpr)
			if call == nil {
				return true
			}
			m, _ := call.Fun.(*ast.SelectorExpr)
			if m == nil {
				return true
			}
			if pkg, _ := m.X.(*ast.Ident); pkg != nil && pkg.Name == "seq" && m.Sel.Name == "Store" {
				got.seqStore++
				return true
			}
			switch m.Sel.Name {
			case "CompareAndSwap":
				got.cas++
			case "Add", "Store", "Swap", "Or", "And":
				t.Errorf("%s: %s calls %s", fset.Position(call.Pos()), fn.Name.Name, m.Sel.Name)
			}
			return true
		})
		if got != w {
			t.Errorf("%s has %d CompareAndSwap and %d seq.Store calls, want %d and %d", fn.Name.Name, got.cas, got.seqStore, w.cas, w.seqStore)
		}
	}
	for name := range want {
		t.Errorf("table.go has no function %s", name)
	}
}
