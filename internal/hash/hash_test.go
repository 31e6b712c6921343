package hash

import (
	"testing"
	"testing/quick"
)

func TestMix64KnownValues(t *testing.T) {
	// fmix64 fixed points and spot values.
	if got := Mix64(0); got != 0 {
		t.Errorf("Mix64(0) = %#x, want 0", got)
	}
	if Mix64(1) == 1 {
		t.Error("Mix64(1) should avalanche away from 1")
	}
	if Mix64(1) == Mix64(2) {
		t.Error("Mix64(1) == Mix64(2)")
	}
}

func TestMix64Bijective(t *testing.T) {
	// Each step of fmix64 is invertible, so distinct inputs must produce
	// distinct outputs. Sample heavily.
	seen := make(map[uint64]uint64, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		h := Mix64(i * 0x9e3779b97f4a7c15)
		if prev, dup := seen[h]; dup {
			t.Fatalf("collision: Mix64 inputs %#x and %#x both map to %#x", prev, i, h)
		}
		seen[h] = i
	}
}

func TestMix32Bijective(t *testing.T) {
	seen := make(map[uint32]uint32, 1<<16)
	for i := uint32(0); i < 1<<16; i++ {
		h := Mix32(i)
		if prev, dup := seen[h]; dup {
			t.Fatalf("collision: Mix32 inputs %#x and %#x both map to %#x", prev, i, h)
		}
		seen[h] = i
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := Mix64(0x0123456789abcdef)
	for bit := 0; bit < 64; bit++ {
		d := base ^ Mix64(0x0123456789abcdef^(1<<bit))
		n := popcount(d)
		if n < 10 || n > 54 {
			t.Errorf("input bit %d flips only %d output bits", bit, n)
		}
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestIndexInBounds(t *testing.T) {
	f := func(lock uint64, self uint64) bool {
		return Index(uintptr(lock), self, 4096) < 4096
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIndexDeterministic(t *testing.T) {
	f := func(lock uint64, self uint64) bool {
		return Index(uintptr(lock), self, 4096) == Index(uintptr(lock), self, 4096)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIndexDispersal(t *testing.T) {
	// 64 threads on one lock must spread over the table: the paper's design
	// depends on "readers of the same lock tend to write to different
	// locations". With 64 IDs into 4096 slots, expect few collisions
	// (birthday bound: ~0.5 expected pairs).
	const threads = 64
	lock := uintptr(0xc000123440 & uint64(^uintptr(0))) // its low word on a 32-bit port
	seen := map[uint32]bool{}
	for i := 0; i < threads; i++ {
		seen[Index(lock, uint64(i), 4096)] = true
	}
	if len(seen) < threads-4 {
		t.Errorf("excessive collisions: %d distinct slots for %d threads", len(seen), threads)
	}
}
