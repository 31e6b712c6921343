package kvs

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestSeqSlotFillsQuarterLine pins the slot at 16 bytes: four to a cache
// line, none straddling two (a slice of them is 16-aligned at worst).
func TestSeqSlotFillsQuarterLine(t *testing.T) {
	if got := unsafe.Sizeof(seqSlot{}); got != 16 {
		t.Fatalf("seqSlot is %d bytes, want 16", got)
	}
}

// TestSeqIndexTombstoneReusedByAnotherKey deletes a key and inserts a
// different one whose probe chain passes the tombstone: the newcomer must
// take the tombstoned slot (no fresh claim), the deleted key must stay
// absent, and re-inserting it must claim the chain's next slot rather than
// disturb the newcomer.
func TestSeqIndexTombstoneReusedByAnotherKey(t *testing.T) {
	var st seqStore
	a := uint64(1)
	st.putLocked(a, []byte("a"), 0)
	tab := st.idx.tab.Load()
	home := seqHome(a) & tab.mask
	b := a + 1
	for seqHome(b)&tab.mask != home {
		b++
	}
	st.removeLocked(a)
	if c := tab.slots[home].cell.Load(); c != seqTombstone {
		t.Fatalf("deleted slot holds %p, want the tombstone", c)
	}
	st.putLocked(b, []byte("b"), 0)
	if st.idx.tab.Load() != tab || st.idx.used != 1 || st.idx.live != 1 {
		t.Fatalf("used %d, live %d: the newcomer claimed a fresh slot instead of the tombstone", st.idx.used, st.idx.live)
	}
	if s := &tab.slots[home]; s.key.Load() != b || string(s.cell.Load().bytes()) != "b" {
		t.Fatalf("home slot holds key %d, want the newcomer %d", s.key.Load(), b)
	}
	if st.idx.lookup(a) != nil {
		t.Fatal("deleted key resolves after its slot was reused")
	}
	st.putLocked(a, []byte("a2"), 0)
	if st.idx.used != 2 || st.idx.live != 2 {
		t.Fatalf("used %d, live %d after re-inserting the deleted key, want 2/2", st.idx.used, st.idx.live)
	}
	for k, want := range map[uint64]string{a: "a2", b: "b"} {
		if c := st.idx.lookup(k); c == nil || string(c.bytes()) != want {
			t.Fatalf("lookup(%d) = %v, want %q", k, c, want)
		}
	}
	st.removeLocked(b)
	if c := st.idx.lookup(a); c == nil || string(c.bytes()) != "a2" {
		t.Fatal("key past a tombstone in its probe chain no longer resolves")
	}
}

func TestSeqIndexPutLookupDelete(t *testing.T) {
	var st seqStore
	if c := st.idx.lookup(7); c != nil {
		t.Fatal("lookup on empty index hit")
	}
	cells := map[uint64]*seqCell{}
	for k := uint64(0); k < 200; k++ {
		c := newSeqCell([]byte{byte(k)}, 0)
		st.idx.put(k, c)
		cells[k] = c
	}
	for k := uint64(0); k < 200; k++ {
		if got := st.idx.lookup(k); got != cells[k] {
			t.Fatalf("lookup(%d) = %p, want %p", k, got, cells[k])
		}
	}
	if got := st.idx.lookup(999); got != nil {
		t.Fatal("absent key hit")
	}
	// Delete half; survivors must stay reachable through the tombstones.
	for k := uint64(0); k < 200; k += 2 {
		st.idx.del(k)
	}
	for k := uint64(0); k < 200; k++ {
		got := st.idx.lookup(k)
		if k%2 == 0 && got != nil {
			t.Fatalf("deleted key %d still resolves", k)
		}
		if k%2 == 1 && got != cells[k] {
			t.Fatalf("survivor %d lost after deletions", k)
		}
	}
}

func TestSeqIndexUpdateRepublishesCell(t *testing.T) {
	var st seqStore
	c1 := newSeqCell([]byte("one"), 0)
	st.idx.put(5, c1)
	c2 := newSeqCell([]byte("twotwotwo"), 0) // outgrows c1: replacement cell
	st.idx.put(5, c2)
	if got := st.idx.lookup(5); got != c2 {
		t.Fatal("index still resolves the outgrown cell")
	}
	if st.idx.live != 1 {
		t.Fatalf("live = %d after republishing one key, want 1", st.idx.live)
	}
}

func TestSeqIndexTombstoneReuseAndRebuild(t *testing.T) {
	var st seqStore
	// Churn keys through insert/delete cycles well past the minimum table
	// size: tombstone accumulation must trigger rebuilds, not lookup decay.
	for round := 0; round < 50; round++ {
		for k := uint64(0); k < 40; k++ {
			c := newSeqCell([]byte{byte(round)}, 0)
			st.idx.put(k, c)
		}
		for k := uint64(0); k < 40; k++ {
			if got := st.idx.lookup(k); got == nil || got.bytes()[0] != byte(round) {
				t.Fatalf("round %d: key %d resolves wrong cell", round, k)
			}
		}
		for k := uint64(0); k < 40; k++ {
			st.idx.del(k)
		}
	}
	for k := uint64(0); k < 40; k++ {
		if st.idx.lookup(k) != nil {
			t.Fatalf("key %d resolves after final deletion round", k)
		}
	}
	tab := st.idx.tab.Load()
	if tab == nil {
		t.Fatal("index never allocated a table")
	}
	if len(tab.slots) > 1024 {
		t.Fatalf("table grew to %d slots for a 40-key working set; tombstones leak", len(tab.slots))
	}
}

func TestSeqStoreResetDropsIndex(t *testing.T) {
	var st seqStore
	st.putLocked(1, []byte("a"), 0)
	st.replaceLocked()
	if st.idx.lookup(1) != nil {
		t.Fatal("index survived replaceLocked")
	}
	if st.idx.live != 0 {
		t.Fatalf("live = %d after replaceLocked, want 0", st.idx.live)
	}
	// The store must be fully usable after the reset.
	st.putLocked(2, []byte("b"), 0)
	if c := st.idx.lookup(2); c == nil || string(c.bytes()) != "b" {
		t.Fatal("post-reset insert not indexed")
	}
}

// TestSeqIndexMatchesMapModel drives the index — the shard's only key table
// — with seeded random ops over a small key space against a Go map, the
// reference it replaced: put, put that outgrows its cell (republish),
// delete, double delete, delete of a never-inserted key, and reset. After
// every op lookup, live and each must agree with the model exactly.
func TestSeqIndexMatchesMapModel(t *testing.T) {
	const keySpace, never = 96, 1 << 40 // keys >= never are never inserted
	rng := rand.New(rand.NewSource(19))
	var st seqStore
	model := map[uint64]string{}
	words := map[uint64]int{} // each resident key's cell capacity
	check := func(op int, what string) {
		t.Helper()
		if st.idx.live != len(model) {
			t.Fatalf("op %d (%s): live = %d, model has %d", op, what, st.idx.live, len(model))
		}
		for k := uint64(0); k < keySpace; k++ {
			c, want := st.idx.lookup(k), model[k]
			if _, in := model[k]; in != (c != nil) || (in && string(c.bytes()) != want) {
				t.Fatalf("op %d (%s): lookup(%d) = %v, model %q (present %v)", op, what, k, c, want, in)
			}
		}
		seen := map[uint64]bool{}
		st.idx.each(func(k uint64, c *seqCell) bool {
			if seen[k] || string(c.bytes()) != model[k] {
				t.Fatalf("op %d (%s): each visited key %d twice or with a stale cell", op, what, k)
			}
			seen[k] = true
			return true
		})
		if len(seen) != len(model) {
			t.Fatalf("op %d (%s): each visited %d keys, model has %d", op, what, len(seen), len(model))
		}
		visits := 0
		done := st.idx.each(func(uint64, *seqCell) bool { visits++; return false })
		if want := min(len(model), 1); visits != want || done != (want == 0) {
			t.Fatalf("op %d (%s): early stop visited %d entries (ran to end: %v), want %d", op, what, visits, done, want)
		}
	}
	for op := 0; op < 12000; op++ {
		k := uint64(rng.Intn(keySpace))
		switch r := rng.Intn(100); {
		case r < 45: // put; the length varies, so some puts outgrow their cell
			v := make([]byte, 1+rng.Intn(40))
			rng.Read(v)
			// Fresh means a cell was allocated: the key was absent, or the
			// value needs more words than the key's cell was built with.
			need := (len(v) + 7) / 8
			had, in := words[k]
			if fresh := st.putLocked(k, v, 0); fresh != (!in || need > had) {
				t.Fatalf("op %d: put(%d) of %d words over a %d-word cell (present %v) reported fresh=%v", op, k, need, had, in, fresh)
			} else if fresh {
				words[k] = need
			}
			model[k] = string(v)
			check(op, "put")
		case r < 85: // delete, then delete again
			_, in := model[k]
			if ok, _ := st.deleteLocked(k); ok != in {
				t.Fatalf("op %d: delete(%d) = %v, model present %v", op, k, ok, in)
			}
			delete(model, k)
			delete(words, k)
			check(op, "delete")
			// removeLocked does not look first, so the second delete reaches
			// the key's own tombstone in the table.
			st.removeLocked(k)
			check(op, "double delete")
		case r < 99: // delete of a key no put ever names
			if ok, _ := st.deleteLocked(never + k); ok {
				t.Fatalf("op %d: delete of never-inserted key hit", op)
			}
			st.removeLocked(never + k)
			check(op, "delete absent")
		default:
			st.replaceLocked()
			clear(model)
			clear(words)
			check(op, "reset")
		}
	}
}

// TestSeqIndexChurnStaysBounded is the tombstone-leak bound with no map to
// rebuild from: rounds of inserting and deleting keys no earlier round used
// leave nothing but foreign tombstones behind, and the table must shed them
// from its own slots instead of growing.
func TestSeqIndexChurnStaysBounded(t *testing.T) {
	var st seqStore
	for _, peak := range []int{5, 40, 300} {
		st.replaceLocked()
		for round := 0; round < 50; round++ {
			base := uint64(round * peak)
			for k := base; k < base+uint64(peak); k++ {
				st.putLocked(k, []byte{byte(round)}, 0)
			}
			if st.idx.live != peak {
				t.Fatalf("peak %d round %d: live = %d", peak, round, st.idx.live)
			}
			for k := base; k < base+uint64(peak); k++ {
				st.removeLocked(k)
			}
			if slots, bound := len(st.idx.tab.Load().slots), 4*max(peak, seqIndexMinSize); slots > bound {
				t.Fatalf("peak %d round %d: %d slots for %d live keys at most (bound %d); tombstones leak", peak, round, slots, peak, bound)
			}
		}
		if st.idx.live != 0 {
			t.Fatalf("peak %d: live = %d after the last round's deletes", peak, st.idx.live)
		}
	}
}

// TestSeqIndexSlidingWindowCopiesRarely holds a window of n keys steady —
// insert a key never seen before, delete the oldest — which leaves one
// foreign tombstone per step. Whatever n is, the table must copy itself at
// most once per n/2 steps, not once per step when n sits just under the
// 3/4 mark.
func TestSeqIndexSlidingWindowCopiesRarely(t *testing.T) {
	const steps = 2000
	for n := 4; n <= 100; n++ {
		var st seqStore
		for k := 0; k < n; k++ {
			st.putLocked(uint64(k), []byte{1}, 0)
		}
		copies, tab := 0, st.idx.tab.Load()
		for i := n; i < n+steps; i++ {
			st.putLocked(uint64(i), []byte{1}, 0)
			st.removeLocked(uint64(i - n))
			if now := st.idx.tab.Load(); now != tab {
				copies, tab = copies+1, now
			}
		}
		if st.idx.live != n || copies*n/2 > steps+n {
			t.Fatalf("window %d: live %d, %d table copies in %d steps (want at most one per %d)", n, st.idx.live, copies, steps, n/2)
		}
	}
}

// TestSeqIndexReserve: a reserved table takes the promised keys with no
// further copy — recovery relies on it when it loads a snapshot's
// slot-ordered keys — and keeps what it already held.
func TestSeqIndexReserve(t *testing.T) {
	var st seqStore
	for k := uint64(0); k < 10; k++ {
		st.idx.put(k, newSeqCell([]byte{byte(k)}, 0))
	}
	st.idx.del(3)
	st.idx.reserve(1000)
	tab := st.idx.tab.Load()
	if st.idx.live != 9 || st.idx.used != 9 {
		t.Fatalf("after reserve: live %d, used %d; want 9, 9 (tombstone dropped)", st.idx.live, st.idx.used)
	}
	for k := uint64(100); k < 1100; k++ {
		st.idx.put(k, newSeqCell([]byte{byte(k)}, 0))
	}
	if st.idx.tab.Load() != tab {
		t.Fatal("the table was copied again inside its reservation")
	}
	for k := uint64(0); k < 1100; k++ {
		want := k != 3 && (k < 10 || k >= 100)
		if c := st.idx.lookup(k); (c != nil) != want || (want && c.bytes()[0] != byte(k)) {
			t.Fatalf("key %d after reserve: present %v, want %v", k, c != nil, want)
		}
	}
	var empty seqIndex
	empty.reserve(0)
	if empty.lookup(1) != nil || empty.live != 0 {
		t.Fatal("reserving nothing on an empty index made something")
	}
}
