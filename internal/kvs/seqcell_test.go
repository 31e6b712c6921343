package kvs

import (
	"bytes"
	"strconv"
	"sync/atomic"
	"testing"
)

func pattern(n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(i*7 + 3)
	}
	return v
}

func TestSeqCellRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 63, 64, 100, 128} {
		v := pattern(n)
		c := newSeqCell(v, 0)
		if got := c.bytes(); !bytes.Equal(got, v) {
			t.Fatalf("len %d: round trip = %x, want %x", n, got, v)
		}
		if got := c.bytes(); got == nil {
			t.Fatalf("len %d: bytes() returned nil; nil is the absence marker", n)
		}
		if !c.fits(n) {
			t.Fatalf("len %d: cell does not fit its own value", n)
		}
		if head, want := c.head(), uint64((n+7)/8)<<cellLenBits|uint64(n); head != want {
			t.Fatalf("len %d: word 0 = %#x, want capacity|length %#x", n, head, want)
		}
	}
}

func TestSeqCellInPlaceShrinkAndRegrow(t *testing.T) {
	c := newSeqCell([]byte("eightby!"), 0) // 8 bytes, one word
	if !c.fits(2) || c.fits(9) {
		t.Fatalf("fits(2)=%v fits(9)=%v, want true/false", c.fits(2), c.fits(9))
	}
	c.set([]byte("xy"), 0)
	if got := c.bytes(); string(got) != "xy" {
		t.Fatalf("after shrink = %q", got)
	}
	c.set([]byte("abcdefgh"), 42)
	if got := c.bytes(); string(got) != "abcdefgh" {
		t.Fatalf("after regrow = %q", got)
	}
	if d := c.deadline(); d != 42 {
		t.Fatalf("deadline = %d, want 42", d)
	}
	if capWords := c.head() >> cellLenBits; capWords != 1 {
		t.Fatalf("in-place sets changed the capacity to %d words", capWords)
	}
}

func TestSeqCellTornLengthClamps(t *testing.T) {
	// A torn length must misreport the payload, never send the copy out of
	// bounds: the clamp is the memory-safety half of the seqlock contract
	// (the seq validation is the correctness half). The length is the low
	// half of word 0; the capacity above it is what a writer always stores
	// back, so only the length half can be wrong.
	c := newSeqCell([]byte{1, 2, 3}, 0)
	const capWords = 1
	for _, torn := range []uint64{9, 1 << 20, maxCellLen} {
		(*atomic.Uint64)(c).Store(capWords<<cellLenBits | torn)
		if got := c.length(); got != capWords*8 {
			t.Fatalf("length field %d: clamped length = %d, want %d", torn, got, capWords*8)
		}
		if got := c.appendTo(nil); len(got) != capWords*8 {
			t.Fatalf("length field %d: torn appendTo returned %d bytes, want the clamp %d", torn, len(got), capWords*8)
		}
		if got := c.bytes(); len(got) != capWords*8 {
			t.Fatalf("length field %d: torn bytes returned %d bytes", torn, len(got))
		}
	}
}

// TestSeqCellPackedHeader walks one key through the states word 0 has to
// carry: an empty value, an in-place update, an update that outgrows the
// cell and replaces it, and a length the field cannot state.
func TestSeqCellPackedHeader(t *testing.T) {
	var st seqStore
	if fresh := st.putLocked(1, nil, 0); !fresh {
		t.Fatal("first put did not allocate")
	}
	empty := st.idx.lookup(1)
	if empty.head() != 0 || empty.length() != 0 || len(empty.bytes()) != 0 || empty.bytes() == nil {
		t.Fatalf("empty value: word 0 = %#x, bytes %v", empty.head(), empty.bytes())
	}
	if fresh := st.putLocked(1, pattern(20), 7); !fresh || st.idx.lookup(1) == empty {
		t.Fatal("a value that outgrew the zero-capacity cell was not given a new one")
	}
	c := st.idx.lookup(1)
	if fresh := st.putLocked(1, pattern(24), 9); fresh || st.idx.lookup(1) != c {
		t.Fatal("a value that fits the cell's three words was not stored in place")
	}
	if got := c.head(); got != 3<<cellLenBits|24 || c.deadline() != 9 || !bytes.Equal(c.bytes(), pattern(24)) {
		t.Fatalf("after the in-place update: word 0 = %#x, deadline %d, value %x", got, c.deadline(), c.bytes())
	}
	if fresh := st.putLocked(1, pattern(25), 0); !fresh || st.idx.lookup(1) == c {
		t.Fatal("a 25-byte value was stored in a 24-byte cell")
	}
	if !bytes.Equal(c.bytes(), pattern(24)) || !bytes.Equal(st.idx.lookup(1).bytes(), pattern(25)) {
		t.Fatal("replacing the cell disturbed the old one or lost the new value")
	}

	if strconv.IntSize < 64 {
		return // no int can exceed the length field
	}
	if got := cellHead(1<<29, maxCellLen); got>>cellLenBits != 1<<29 || got&maxCellLen != maxCellLen {
		t.Fatalf("the longest value the field can state packed to %#x", got)
	}
	over := uint64(maxCellLen) + 1
	defer func() {
		if recover() == nil {
			t.Fatal("a length one past the field was packed, not refused")
		}
	}()
	cellHead(1<<29, int(over))
}

// TestFreshPutAllocatesOneCell pins the one-allocation layout end to end: a
// Put of a 128-byte value under a key with no cell allocates exactly once.
// The keys were inserted and deleted beforehand, so each Put revives its
// own tombstone and the table never has to grow.
func TestFreshPutAllocatesOneCell(t *testing.T) {
	const runs = 200
	s, err := NewSharded(1, mkStd)
	if err != nil {
		t.Fatal(err)
	}
	v := pattern(128)
	for k := uint64(0); k <= runs; k++ {
		s.Put(k, v)
	}
	for k := uint64(0); k <= runs; k++ {
		s.Delete(k)
	}
	k := uint64(0)
	if got := testing.AllocsPerRun(runs, func() { s.Put(k, v); k++ }); got != 1 {
		t.Fatalf("a fresh 128-byte Put allocates %v times, want 1", got)
	}
	if st := s.Stats().Total(); st.Keys != runs+1 || st.PutsInPlace != 0 {
		t.Fatalf("keys %d, in-place puts %d: the measured Puts were not all fresh", st.Keys, st.PutsInPlace)
	}
}

// FuzzSeqCell drives one key's storage with arbitrary value lengths against
// a []byte model: each put is stored in place when it fits the cell's
// capacity and replaces the cell when it does not, the capacity never
// changes under in-place stores, and what reads back is what was written.
// Run under -race, checkptr validates every unsafe.Slice over the cell.
func FuzzSeqCell(f *testing.F) {
	f.Add([]byte{0, 0, 0, 128, 0, 128, 0, 129, 0, 1})
	f.Add([]byte{0, 8, 0, 7, 0, 9, 0, 0, 1, 0})
	f.Add([]byte{16, 0, 15, 255, 16, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var st seqStore
		capBytes := -1 // the model of the resident cell's capacity; -1 = no cell yet
		for i := 0; i+1 < len(data) && i < 128; i += 2 {
			n := (int(data[i])<<8 | int(data[i+1])) % 1200
			v := make([]byte, n)
			for j := range v {
				v[j] = data[i+1] ^ byte(j*31)
			}
			deadline := int64(i) // 0, no TTL, on the first step
			before := st.idx.lookup(0)
			fresh := st.putLocked(0, v, deadline)
			c := st.idx.lookup(0)
			if fresh != (n > capBytes) || fresh == (c == before) {
				t.Fatalf("step %d: %d bytes into a %d-byte cell: fresh=%v, cell replaced=%v", i/2, n, capBytes, fresh, c != before)
			}
			if fresh {
				capBytes = (n + 7) / 8 * 8
			}
			if got := int(c.head()>>cellLenBits) * 8; got != capBytes {
				t.Fatalf("step %d: capacity %d bytes, model %d", i/2, got, capBytes)
			}
			if c.length() != n || !bytes.Equal(c.bytes(), v) || c.deadline() != deadline {
				t.Fatalf("step %d: read back %d bytes, deadline %d; wrote %d bytes, deadline %d", i/2, c.length(), c.deadline(), n, deadline)
			}
			if got := c.appendTo([]byte("pre")); !bytes.Equal(got[3:], v) || string(got[:3]) != "pre" {
				t.Fatalf("step %d: appendTo disturbed its prefix or the value", i/2)
			}
		}
	})
}
