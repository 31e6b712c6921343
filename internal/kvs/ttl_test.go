package kvs

import (
	"bytes"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/clock"
)

func TestShardedPutTTLVisibleUntilDeadline(t *testing.T) {
	s, _ := NewSharded(4, mkStd)
	s.PutTTL(1, EncodeValue(1), time.Hour)
	if _, ok := s.Get(1); !ok {
		t.Fatal("Get missed a TTL key an hour before its deadline")
	}
	if got := s.Stats().Total().TTLKeys; got != 1 {
		t.Fatalf("TTLKeys = %d, want 1", got)
	}
}

// TestShardedTTLExpiryExactlyAtDeadline pins the boundary with an absolute
// deadline: a key whose deadline is the current instant (or earlier) is
// expired — expiry is inclusive, now >= deadline.
func TestShardedTTLExpiryExactlyAtDeadline(t *testing.T) {
	s, _ := NewSharded(4, mkStd)
	s.put(1, EncodeValue(1), clock.Nanos())
	if _, ok := s.Get(1); ok {
		t.Fatal("Get returned a key whose deadline was exactly now")
	}
	total := s.Stats().Total()
	if total.Expired == 0 {
		t.Fatalf("Expired = 0 after a lazy-expired read")
	}
	if total.GetHits != 0 {
		t.Fatalf("GetHits = %d for an expired read, want 0", total.GetHits)
	}
	// One nanosecond before any plausible "now": expired. Far future: visible.
	s.put(2, EncodeValue(2), 1)
	if _, ok := s.Get(2); ok {
		t.Fatal("Get returned a long-expired key")
	}
	s.put(3, EncodeValue(3), clock.Nanos()+int64(time.Hour))
	if _, ok := s.Get(3); !ok {
		t.Fatal("Get missed a key expiring an hour from now")
	}
}

func TestShardedPutTTLNonPositiveIsBornExpired(t *testing.T) {
	s, _ := NewSharded(2, mkStd)
	s.PutTTL(9, EncodeValue(9), 0)
	if _, ok := s.Get(9); ok {
		t.Fatal("PutTTL(0) stored a visible key")
	}
	s.PutTTL(10, EncodeValue(10), -time.Second)
	if _, ok := s.Get(10); ok {
		t.Fatal("PutTTL(-1s) stored a visible key")
	}
}

// TestShardedPutTTLOverflowSaturates pins the overflow clamp: a TTL whose
// absolute deadline would exceed int64 nanoseconds means "effectively
// never", not a wrapped negative deadline that kills the key at birth.
func TestShardedPutTTLOverflowSaturates(t *testing.T) {
	s, _ := NewSharded(2, mkStd)
	s.PutTTL(1, EncodeValue(1), time.Duration(math.MaxInt64))
	if _, ok := s.Get(1); !ok {
		t.Fatal("a maximum-duration TTL expired the key at birth")
	}
	if got := s.Reap(0); got != 0 {
		t.Fatalf("Reap removed %d keys under a maximum-duration TTL", got)
	}
}

// TestDeadlineAt pins the one relative→absolute deadline conversion that
// PutTTL and both record decoders share: saturating at MaxInt64, and never
// the "no TTL" sentinel 0, so a TTL that lands exactly there is still born
// expired rather than stored without one.
func TestDeadlineAt(t *testing.T) {
	for _, c := range []struct{ now, rem, want int64 }{
		{100, 50, 150},
		{100, 0, 100},
		{100, -100, -1},                     // lands on 0: still passed, still a TTL
		{100, -300, -200},                   // negative stays negative
		{0, 0, -1},                          // a zero TTL at the clock's epoch
		{100, math.MaxInt64, math.MaxInt64}, // overflow saturates
		{math.MaxInt64 - 1, 2, math.MaxInt64},
	} {
		if got := deadlineAt(c.now, c.rem); got != c.want {
			t.Errorf("deadlineAt(%d, %d) = %d, want %d", c.now, c.rem, got, c.want)
		}
	}
	// And through the engine: a key whose deadline would be 0 is expired.
	s, _ := NewSharded(1, mkStd)
	s.put(1, []byte("x"), deadlineAt(100, -100))
	if _, ok := s.Get(1); ok {
		t.Fatal("a TTL landing on the no-TTL sentinel stored a live key")
	}
	if got := s.Stats().Total().TTLKeys; got != 1 {
		t.Fatalf("TTLKeys = %d, want 1: the key must keep its TTL", got)
	}
}

func TestShardedPlainPutClearsTTL(t *testing.T) {
	s, _ := NewSharded(2, mkStd)
	s.put(1, EncodeValue(1), clock.Nanos()) // expired residue
	s.Put(1, EncodeValue(2))                // plain overwrite: TTL gone
	v, ok := s.Get(1)
	if !ok {
		t.Fatal("Get missed a plain-Put key that once carried a TTL")
	}
	if !bytes.Equal(v, EncodeValue(2)) {
		t.Fatalf("Get = %x, want 2", v)
	}
	if got := s.Stats().Total().TTLKeys; got != 0 {
		t.Fatalf("TTLKeys = %d after plain overwrite, want 0", got)
	}
}

func TestShardedDeleteOfExpiredReportsAbsent(t *testing.T) {
	s, _ := NewSharded(2, mkStd)
	s.put(1, EncodeValue(1), clock.Nanos())
	if s.Delete(1) {
		t.Fatal("Delete of an expired key reported present")
	}
	// The residue is gone: a reap finds nothing.
	if got := s.Reap(0); got != 0 {
		t.Fatalf("Reap after expired Delete removed %d, want 0", got)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after expired Delete, want 0", s.Len())
	}
}

func TestShardedMultiOpsSkipExpired(t *testing.T) {
	s, _ := NewSharded(4, mkStd)
	s.put(1, EncodeValue(1), clock.Nanos())
	s.Put(2, EncodeValue(2))
	got := s.MultiGet([]uint64{1, 2})
	if got[0] != nil {
		t.Fatalf("MultiGet returned an expired key: %v", got[0])
	}
	if !bytes.Equal(got[1], EncodeValue(2)) {
		t.Fatalf("MultiGet[1] = %v", got[1])
	}
	if removed := s.MultiDelete([]uint64{1, 2}); removed != 1 {
		t.Fatalf("MultiDelete counted %d visible removals, want 1", removed)
	}
}

func TestShardedRangeSnapshotSkipExpired(t *testing.T) {
	s, _ := NewSharded(4, mkStd)
	s.Put(1, EncodeValue(1))
	s.put(2, EncodeValue(2), clock.Nanos())
	s.PutTTL(3, EncodeValue(3), time.Hour)
	visited := map[uint64]bool{}
	s.Range(func(k uint64, v []byte) bool {
		visited[k] = true
		return true
	})
	if len(visited) != 2 || visited[2] {
		t.Fatalf("Range visited %v, want {1, 3}", visited)
	}
	requireState(t, s, map[uint64][]byte{1: EncodeValue(1), 3: EncodeValue(3)}, "Snapshot")
}

func TestShardedReap(t *testing.T) {
	s, _ := NewSharded(8, mkStd)
	const n = 200
	for k := uint64(0); k < n; k++ {
		s.put(k, EncodeValue(k), clock.Nanos()) // all expired
	}
	s.PutTTL(1000, EncodeValue(1000), time.Hour) // alive TTL key
	s.Put(2000, EncodeValue(2000))               // no TTL
	reaped := 0
	for i := 0; i < 100 && reaped < n; i++ {
		reaped += s.Reap(64) // incremental: small budget, repeated calls
	}
	if reaped != n {
		t.Fatalf("Reap removed %d keys in total, want %d", reaped, n)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d after reap, want 2", s.Len())
	}
	if _, ok := s.Get(1000); !ok {
		t.Fatal("Reap removed an unexpired TTL key")
	}
	if _, ok := s.Get(2000); !ok {
		t.Fatal("Reap removed a TTL-free key")
	}
	total := s.Stats().Total()
	if total.Reaped != n {
		t.Fatalf("Reaped counter = %d, want %d", total.Reaped, n)
	}
	if total.TTLKeys != 1 {
		t.Fatalf("TTLKeys = %d after reap, want 1", total.TTLKeys)
	}
}

// TestShardedReapVsLazyReadNoDoubleAccounting drives readers over an
// expired key while Reap removes it: the lazy read observes a miss, the
// reap removes exactly one entry, and neither path corrupts the other (a
// read racing the reap must not resurrect or double-delete).
func TestShardedReapVsLazyReadNoDoubleAccounting(t *testing.T) {
	s, _ := NewSharded(2, mkStd)
	s.put(1, EncodeValue(1), clock.Nanos())
	if _, ok := s.Get(1); ok { // lazy read sees the expiry first
		t.Fatal("lazy read returned an expired key")
	}
	if got := s.Reap(0); got != 1 {
		t.Fatalf("Reap removed %d, want 1 (lazy read must not have deleted)", got)
	}
	if got := s.Reap(0); got != 0 {
		t.Fatalf("second Reap removed %d, want 0", got)
	}
	total := s.Stats().Total()
	if total.Reaped != 1 {
		t.Fatalf("Reaped = %d, want exactly 1", total.Reaped)
	}
}

func TestShardedMultiPutTTL(t *testing.T) {
	s, _ := NewSharded(4, mkStd)
	keys := []uint64{1, 2, 3}
	vals := [][]byte{EncodeValue(1), EncodeValue(2), EncodeValue(3)}
	s.MultiPutTTL(keys, vals, time.Hour)
	if got := s.Stats().Total().TTLKeys; got != 3 {
		t.Fatalf("TTLKeys = %d after MultiPutTTL, want 3", got)
	}
	for _, k := range keys {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("Get(%d) missed an hour-TTL key", k)
		}
	}
}

// shardKeys scans the key space for n keys landing on shard sh.
func shardKeys(s *Sharded, sh, n int) []uint64 {
	keys := make([]uint64, 0, n)
	for k := uint64(0); len(keys) < n; k++ {
		if s.ShardOf(k) == sh {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestShardedReapCursorRewindsOnExhaustedBudget pins the cursor rewind:
// when the budget runs out with a shard's TTL set only partly examined,
// the next call must resume at that shard rather than skipping its tail
// for a full round-robin cycle. Every entry is expired, so examined ==
// removed and the per-shard Reaped counters make the walk order visible.
func TestShardedReapCursorRewindsOnExhaustedBudget(t *testing.T) {
	s, _ := NewSharded(2, mkStd)
	for _, k := range shardKeys(s, 0, 6) {
		s.put(k, EncodeValue(k), clock.Nanos())
	}
	for _, k := range shardKeys(s, 1, 6) {
		s.put(k, EncodeValue(k), clock.Nanos())
	}

	// Call 1 starts at shard 0, removes 4, and exhausts the budget with 2
	// entries left: the cursor must rewind to shard 0.
	if got := s.Reap(4); got != 4 {
		t.Fatalf("Reap call 1 removed %d, want 4", got)
	}
	// Call 2 therefore finishes shard 0 (2 entries) before spending the
	// rest on shard 1. Without the rewind it would start at shard 1 and
	// leave shard 0's tail stranded, and the per-shard split would be 4/4.
	if got := s.Reap(4); got != 4 {
		t.Fatalf("Reap call 2 removed %d, want 4", got)
	}
	st := s.Stats()
	if st.Shards[0].Reaped != 6 {
		t.Fatalf("shard 0 Reaped = %d after call 2, want 6 (cursor did not rewind)", st.Shards[0].Reaped)
	}
	if st.Shards[1].Reaped != 2 {
		t.Fatalf("shard 1 Reaped = %d after call 2, want 2", st.Shards[1].Reaped)
	}
	if got := s.Reap(4); got != 4 {
		t.Fatalf("Reap call 3 removed %d, want 4", got)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after three budgeted calls, want 0", s.Len())
	}
}

// TestShardedReapUnderConcurrentShrink storms budgeted Reap calls against
// writers that delete and rewrite the same TTL keys: the shard's TTL set
// shrinks underneath a parked cursor. Nothing may panic, every expired key
// must eventually go, and the Reaped counter can never exceed the number
// of TTL entries ever written.
func TestShardedReapUnderConcurrentShrink(t *testing.T) {
	s, _ := NewSharded(4, mkStd)
	const keys = 256
	for k := uint64(0); k < keys; k++ {
		s.PutTTL(k, stormValue(k, k), -1)
	}
	// The shrinker: a harness driver that deletes and re-expires keys.
	d := newDriver(t, s, 21, 0, keys, false, []opKind{opDelete, opPutExpired})
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			d.do(d.next())
		}
	}()
	for i := 0; i < 400; i++ {
		s.Reap(16) // budget far below the live TTL set: parks mid-shard
	}
	stop.Store(true)
	wg.Wait()

	// Drain: every remaining expired entry must be reachable.
	for i := 0; i < 200 && s.Len() > 0; i++ {
		s.Reap(0)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after drain, want 0", s.Len())
	}
	total := s.Stats().Total()
	if written := keys + uint64(d.drawn[opPutExpired]); total.Reaped > written {
		t.Fatalf("Reaped = %d exceeds TTL entries ever written %d", total.Reaped, written)
	}
	if total.TTLKeys != 0 {
		t.Fatalf("TTLKeys = %d after drain, want 0", total.TTLKeys)
	}
}
