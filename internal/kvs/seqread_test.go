package kvs

import (
	"fmt"
	"testing"

	"github.com/bravolock/bravo/internal/rwl"
)

// installSeqReadHook installs fn in the copy→validate window of the
// optimistic read path and removes it when the test ends. Tests that use
// the hook must not run in parallel (the hook is package state).
func installSeqReadHook(t *testing.T, fn func(key uint64)) {
	t.Helper()
	seqReadHook.Store(&fn)
	t.Cleanup(func() { seqReadHook.Store(nil) })
}

// TestSeqReadCollisionBoundedRetriesThenFallback forces a writer into every
// optimistic read's copy→validate window and asserts the contract the
// tentpole promises: bounded retries (exactly the attempt budget), then a
// clean fallback to the BRAVO read-lock path that returns the latest value —
// for anonymous readers and rwl.Reader handles both.
func TestSeqReadCollisionBoundedRetriesThenFallback(t *testing.T) {
	const key = 42
	for _, mode := range []string{"anonymous", "handle"} {
		t.Run(mode, func(t *testing.T) {
			s, _, _ := newBravoSharded(t, 4)
			s.Put(key, []byte("v0"))
			gen := 0
			installSeqReadHook(t, func(k uint64) {
				if k != key {
					return
				}
				// A full write lands mid-read, every time: no attempt can
				// ever validate.
				gen++
				s.Put(key, []byte(fmt.Sprintf("v%d", gen)))
			})
			var v []byte
			var ok bool
			if mode == "handle" {
				v, ok = s.GetH(rwl.NewReader(), key)
			} else {
				v, ok = s.Get(key)
			}
			if !ok || string(v) != fmt.Sprintf("v%d", gen) {
				t.Fatalf("fallback read = %q, %v; want the latest value v%d", v, ok, gen)
			}
			st := s.Stats().Total()
			if st.SeqFallbacks != 1 {
				t.Fatalf("SeqFallbacks = %d, want 1", st.SeqFallbacks)
			}
			if st.SeqReads != 0 {
				t.Fatalf("SeqReads = %d, want 0: no attempt could validate", st.SeqReads)
			}
			if want := uint64(s.SeqReadAttempts()); st.SeqRetries != want {
				t.Fatalf("SeqRetries = %d, want the attempt budget %d", st.SeqRetries, want)
			}
			if st.Gets != 1 || st.GetHits != 1 {
				t.Fatalf("Gets/GetHits = %d/%d, want 1/1 (one logical read)", st.Gets, st.GetHits)
			}
			if gen != s.SeqReadAttempts() {
				t.Fatalf("writer fired %d times, want once per attempt (%d)", gen, s.SeqReadAttempts())
			}
		})
	}
}

// TestSeqReadSingleCollisionRetriesThenValidates lets exactly one writer
// interfere: the read must retry once and then serve optimistically, never
// falling back.
func TestSeqReadSingleCollisionRetriesThenValidates(t *testing.T) {
	const key = 7
	s, _, _ := newBravoSharded(t, 2)
	s.Put(key, []byte("old"))
	fired := false
	installSeqReadHook(t, func(k uint64) {
		if k != key || fired {
			return
		}
		fired = true
		s.Put(key, []byte("new"))
	})
	v, ok := s.Get(key)
	if !ok || string(v) != "new" {
		t.Fatalf("read after one collision = %q, %v; want \"new\"", v, ok)
	}
	st := s.Stats().Total()
	if st.SeqReads != 1 || st.SeqRetries != 1 || st.SeqFallbacks != 0 {
		t.Fatalf("seq reads/retries/fallbacks = %d/%d/%d, want 1/1/0",
			st.SeqReads, st.SeqRetries, st.SeqFallbacks)
	}
}

// TestSeqReadCollisionMultiGet drives the same forced-collision contract
// through the batched read path, plain and handle. One shard, so all keys
// share one seq bracket and the hook's write tears every group copy.
func TestSeqReadCollisionMultiGet(t *testing.T) {
	s, _, _ := newBravoSharded(t, 1)
	keys := []uint64{1, 2, 3, 4, 5, 6}
	for _, k := range keys {
		s.Put(k, []byte{byte(k)})
	}
	gen := byte(0)
	installSeqReadHook(t, func(k uint64) {
		gen++
		s.Put(keys[0], []byte{100 + gen}) // tear every optimistic group copy
	})
	for _, mode := range []string{"plain", "handle"} {
		var vals [][]byte
		if mode == "handle" {
			vals = s.MultiGetH(rwl.NewReader(), keys)
		} else {
			vals = s.MultiGet(keys)
		}
		for i, k := range keys[1:] {
			if vals[i+1] == nil || vals[i+1][0] != byte(k) {
				t.Fatalf("%s MultiGet[%d] = %v, want [%d]", mode, i+1, vals[i+1], k)
			}
		}
		if vals[0] == nil || vals[0][0] != 100+gen {
			t.Fatalf("%s MultiGet[0] = %v, want the latest torn-key value %d", mode, vals[0], 100+gen)
		}
	}
	st := s.Stats().Total()
	if st.SeqFallbacks == 0 || st.SeqReads != 0 {
		t.Fatalf("seq fallbacks/reads = %d/%d: every group should have fallen back",
			st.SeqFallbacks, st.SeqReads)
	}
}

// TestSeqReadValidatedMissIsAuthoritative checks that an optimistic miss
// does not fall back: a validated empty probe is exactly as authoritative
// as a locked lookup.
func TestSeqReadValidatedMissIsAuthoritative(t *testing.T) {
	s, _ := NewSharded(2, mkStd)
	s.Put(1, []byte("x"))
	if _, ok := s.Get(999); ok {
		t.Fatal("absent key hit")
	}
	st := s.Stats().Total()
	if st.SeqReads != 1 || st.SeqFallbacks != 0 {
		t.Fatalf("seq reads/fallbacks = %d/%d, want 1/0", st.SeqReads, st.SeqFallbacks)
	}
	if st.Gets != 1 || st.GetHits != 0 {
		t.Fatalf("gets/hits = %d/%d, want 1/0", st.Gets, st.GetHits)
	}
}

// TestSeqReadObservesTTLExpiry checks lazy expiry on the optimistic path:
// a validated copy of an expired entry is reported as a miss and counted,
// exactly like the locked path.
func TestSeqReadObservesTTLExpiry(t *testing.T) {
	s, _ := NewSharded(2, mkStd)
	s.put(3, []byte("dead"), -1) // born expired, like the model tests
	if _, ok := s.Get(3); ok {
		t.Fatal("expired entry visible through the optimistic path")
	}
	st := s.Stats().Total()
	if st.SeqReads != 1 {
		t.Fatalf("SeqReads = %d, want 1 (expiry must not force a fallback)", st.SeqReads)
	}
	if st.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", st.Expired)
	}
}

// TestSeqReadDisabled pins the kill switch: with a zero attempt budget
// every read takes the lock and the seq counters stay untouched.
func TestSeqReadDisabled(t *testing.T) {
	s, _ := NewSharded(2, mkStd)
	s.SetSeqReadAttempts(0)
	s.Put(1, []byte("x"))
	if v, ok := s.Get(1); !ok || string(v) != "x" {
		t.Fatalf("Get with seq reads disabled = %q, %v", v, ok)
	}
	s.MultiGet([]uint64{1, 2})
	st := s.Stats().Total()
	if st.SeqReads != 0 || st.SeqRetries != 0 || st.SeqFallbacks != 0 {
		t.Fatalf("seq counters %d/%d/%d with the path disabled",
			st.SeqReads, st.SeqRetries, st.SeqFallbacks)
	}
	if st.Gets != 1 || st.GetHits != 1 {
		t.Fatalf("gets/hits = %d/%d", st.Gets, st.GetHits)
	}
}

// TestSeqReadsDerivedFromLockedReads pins SeqReads, which Stats derives as
// the read sections that did not take the shard lock, to what a counter
// bumped on every served seq read reported: with the optimistic path off no
// read is a seq read or a fallback, however it ends; with the default budget
// a hit and a miss are seq reads alike and a read whose every attempt
// collides is a fallback and nothing else. Each case makes one Get and one
// single-key MultiGet — two read sections.
func TestSeqReadsDerivedFromLockedReads(t *testing.T) {
	const key, absent = 42, 999
	for _, tc := range []struct {
		name                         string
		attempts                     int
		read                         uint64
		collide                      bool
		seqReads, retries, fallbacks uint64
	}{
		{"attempts 0, hit", 0, key, false, 0, 0, 0},
		{"attempts 0, miss", 0, absent, false, 0, 0, 0},
		{"attempts 0, collision armed", 0, key, true, 0, 0, 0},
		{"attempts 3, hit", 3, key, false, 2, 0, 0},
		{"attempts 3, miss", 3, absent, false, 2, 0, 0},
		{"attempts 3, collision", 3, key, true, 0, 6, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _, _ := newBravoSharded(t, 4)
			s.Put(key, []byte("v"))
			s.SetSeqReadAttempts(tc.attempts)
			if tc.collide {
				installSeqReadHook(t, func(uint64) { s.Put(key, []byte("w")) })
			}
			_, ok := s.Get(tc.read)
			vals := s.MultiGet([]uint64{tc.read})
			if hit := tc.read == key; ok != hit || (vals[0] != nil) != hit {
				t.Fatalf("Get ok=%v, MultiGet %v; want hit=%v", ok, vals[0], hit)
			}
			st := s.Stats().Total()
			if st.SeqReads != tc.seqReads || st.SeqRetries != tc.retries || st.SeqFallbacks != tc.fallbacks {
				t.Fatalf("seq reads/retries/fallbacks = %d/%d/%d, want %d/%d/%d",
					st.SeqReads, st.SeqRetries, st.SeqFallbacks, tc.seqReads, tc.retries, tc.fallbacks)
			}
			if st.Gets != 1 || st.MultiGetBatches != 1 || st.MultiGetKeys != 1 {
				t.Fatalf("gets/batches/batch keys = %d/%d/%d, want 1/1/1", st.Gets, st.MultiGetBatches, st.MultiGetKeys)
			}
		})
	}
}
