package kvs

// Tests for the write section (write.go): that every route an Entry can
// take to a store — write on a live engine, log replay, the replication
// stream, a transaction rolled forward by recovery — applies it and counts
// it the same way, and that the record codec under all of them still reads
// and writes the bytes it always did.

import (
	"bytes"
	"encoding/binary"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/clock"
)

// checkStatsInvariants demands, shard by shard, the three orderings every
// derived counter depends on. A violated one shows up as a count near 2^64.
func checkStatsInvariants(t *testing.T, s *Sharded, label string) {
	t.Helper()
	for i, st := range s.Stats().Shards {
		if st.PutsInPlace > st.Puts || st.GetHits > st.Gets || st.DeleteHits > st.Deletes {
			t.Errorf("%s: shard %d: puts_in_place %d of %d puts, get_hits %d of %d gets, delete_hits %d of %d deletes",
				label, i, st.PutsInPlace, st.Puts, st.GetHits, st.Gets, st.DeleteHits, st.Deletes)
		}
	}
}

// tearLastFrame truncates the final complete record off shard's log: what a
// crash between two participants' appends leaves behind.
func tearLastFrame(t *testing.T, s *Sharded, shard int) {
	t.Helper()
	path := s.walPath(shard)
	if err := os.Truncate(path, lastFrameOffset(t, path)); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveredStatsKeepTheirInvariants pins the counting rule in the
// ShardStats comment: entries applied by recovery, by a follower and by a
// transaction roll-forward count as puts and deletes like any others, so no
// derived counter underflows. (Recovery once counted a replayed put as fresh
// without counting it as a put: every reopened engine reported
// puts_in_place = 2^64 − N.)
func TestRecoveredStatsKeepTheirInvariants(t *testing.T) {
	const n = 100
	dir := t.TempDir()
	s := openTestKV(t, dir, 4, SyncNone)
	for k := uint64(0); k < n; k++ {
		s.Put(k, EncodeValue(k))
	}
	s.MultiDelete([]uint64{3, 5, n + 1})
	a, b := twoShardKeys(t, s)
	if err := s.Txn([]uint64{a, b}, func(tx *Tx) error {
		tx.Put(a, []byte("a1"))
		tx.Delete(b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	follower, err := NewSharded(4, mkStd)
	if err != nil {
		t.Fatal(err)
	}
	drainRepl(t, s, follower, make([]ReplCursor, 4))
	follower.Get(a)
	follower.Get(b)
	checkStatsInvariants(t, follower, "follower after the stream")

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	tearLastFrame(t, s, s.ShardOf(b))
	r := openTestKV(t, dir, 4, SyncNone)
	defer r.Close()
	for k := uint64(0); k < n+2; k++ {
		r.Get(k)
	}
	checkStatsInvariants(t, r, "reopened after a torn commit")
	if got := r.Stats().Total(); got.Puts != n+1 || got.Deletes != 4 || got.PutsInPlace != 1 {
		t.Fatalf("reopened engine counts %d puts (%d in place), %d deletes; the log held %d, 1 and 4",
			got.Puts, got.PutsInPlace, got.Deletes, n+1)
	}
}

// lastPerKey keeps each key's final entry: what a transaction, which stages
// one write per key, makes of a batch.
func lastPerKey(ents []Entry) []Entry {
	var out []Entry
	for i, e := range ents {
		last := true
		for _, later := range ents[i+1:] {
			last = last && later.Key != e.Key
		}
		if last {
			out = append(out, e)
		}
	}
	return out
}

// TestOneBatchFourRoutes hands one batch — puts, a TTL put, deletes of a
// present, an absent and an expired key, a key written twice — to the write
// section by each route an entry can take, and demands the same visible
// contents, the same put/delete/miss/expired counts, and a TTL deadline that
// moved by no more than the route's own elapsed time.
func TestOneBatchFourRoutes(t *testing.T) {
	const shards = 2
	probe, _ := NewSharded(shards, mkStd)
	k0, k1 := shardKeys(probe, 0, 4), shardKeys(probe, 1, 4)
	present, expired, absent := k0[0], k1[0], k0[1]
	twice, ttlKey := k1[1], k0[2]
	const ttl = time.Hour
	t0 := clock.Nanos()
	batch := []Entry{
		{Op: OpPut, Key: k0[3], Value: []byte("one")},
		{Op: OpPut, Key: twice, Value: []byte("two-a")},
		{Op: OpPut, Key: ttlKey, Deadline: clock.Nanos() + int64(ttl), Value: []byte("soon")},
		{Op: OpDelete, Key: present},
		{Op: OpDelete, Key: absent},
		{Op: OpDelete, Key: expired},
		{Op: OpPut, Key: twice, Value: []byte("two-b")},
	}
	preload := func(s *Sharded) {
		s.Put(present, []byte("here"))
		s.Put(twice, []byte("old"))
		s.put(expired, []byte("dead"), -1) // born expired
	}
	viaWrite := func(s *Sharded, ents []Entry) {
		for i := range s.shards {
			s.shards[i].write(s.ownedBy(ents, i))
		}
	}
	volatile := func(t *testing.T, ents []Entry) *Sharded {
		s, err := NewSharded(shards, mkStd)
		if err != nil {
			t.Fatal(err)
		}
		preload(s)
		viaWrite(s, ents)
		return s
	}
	durable := func(t *testing.T, apply func(*Sharded)) (*Sharded, string) {
		dir := t.TempDir()
		s := openTestKV(t, dir, shards, SyncNone)
		preload(s)
		apply(s)
		return s, dir
	}

	type observed struct {
		Contents                                        map[uint64][]byte
		Puts, PutsInPlace, Deletes, DeleteHits, Expired uint64
	}
	observe := func(t *testing.T, s *Sharded) observed {
		st := s.Stats().Total()
		d := s.shardOf(ttlKey).idx.lookup(ttlKey).deadline()
		if t1 := clock.Nanos(); d < t0+int64(ttl) || d > t1+int64(ttl) {
			t.Errorf("TTL deadline %d outside [%d, %d]: it moved by more than the route took", d, t0+int64(ttl), t1+int64(ttl))
		}
		return observed{s.Snapshot(), st.Puts, st.PutsInPlace, st.Deletes, st.DeleteHits, st.Expired}
	}

	routes := []struct {
		name string
		// sees is the batch as the route delivers it.
		sees func([]Entry) []Entry
		run  func(t *testing.T) *Sharded
	}{
		{"write", nil, func(t *testing.T) *Sharded { return volatile(t, batch) }},
		{"write, close, reopen", nil, func(t *testing.T) *Sharded {
			s, dir := durable(t, func(s *Sharded) { viaWrite(s, batch) })
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			return openTestKV(t, dir, shards, SyncNone)
		}},
		{"ReplRead, DecodeReplFrame, ApplyReplRecord", nil, func(t *testing.T) *Sharded {
			s, _ := durable(t, func(s *Sharded) { viaWrite(s, batch) })
			defer s.Close()
			f, err := NewSharded(shards, mkStd)
			if err != nil {
				t.Fatal(err)
			}
			drainRepl(t, s, f, make([]ReplCursor, shards))
			return f
		}},
		{"Txn, second witness torn, rolled forward", lastPerKey, func(t *testing.T) *Sharded {
			s, dir := durable(t, func(s *Sharded) {
				keys := make([]uint64, len(batch))
				for i, e := range batch {
					keys[i] = e.Key
				}
				if err := s.Txn(keys, func(tx *Tx) error {
					for _, e := range batch {
						switch {
						case e.Op == OpDelete:
							tx.Delete(e.Key)
						case e.Deadline != 0:
							tx.PutTTL(e.Key, e.Value, time.Duration(e.Deadline-clock.Nanos()))
						default:
							tx.Put(e.Key, e.Value)
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			})
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			tearLastFrame(t, s, 1)
			return openTestKV(t, dir, shards, SyncNone)
		}},
	}
	for _, r := range routes {
		t.Run(r.name, func(t *testing.T) {
			ents := batch
			if r.sees != nil {
				ents = r.sees(batch)
			}
			ref := volatile(t, ents)
			want := observe(t, ref)
			s := r.run(t)
			defer s.Close()
			if got := observe(t, s); !reflect.DeepEqual(got, want) {
				t.Fatalf("route left\n%+v\nwrite on a volatile engine leaves\n%+v", got, want)
			}
			checkStatsInvariants(t, s, r.name)
		})
	}
	// The reference itself, against literals: the twice-written key holds
	// its later value, the present key is gone, the expired residue was
	// removed but its delete missed.
	want := observe(t, volatile(t, batch))
	if string(want.Contents[twice]) != "two-b" || len(want.Contents) != 3 ||
		want.Puts != 7 || want.PutsInPlace != 2 || want.Deletes != 3 || want.DeleteHits != 1 || want.Expired != 1 {
		t.Fatalf("reference route left %+v", want)
	}
}

// TestRecordGoldenBytes pins the record format with one payload per version
// written out as literal bytes: the decoder reads each as it always has, and
// the encoder still produces the two versions it writes byte for byte.
func TestRecordGoldenBytes(t *testing.T) {
	put := []byte{1, 7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 'h', 'i'} // opPut key=7 "hi"
	del := []byte{3, 9, 0, 0, 0, 0, 0, 0, 0}                       // opDelete key=9
	// opPutTTL key=8, 3,600,000,000,000 ns remaining, "t"
	ttl := []byte{2, 8, 0, 0, 0, 0, 0, 0, 0, 0x00, 0xa0, 0xb8, 0x30, 0x46, 0x03, 0x00, 0x00, 1, 0, 0, 0, 't'}
	lsn := []byte{0x2a, 0, 0, 0, 0, 0, 0, 0} // 42
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	three := []byte{3, 0, 0, 0}
	witness := cat([]byte{2, 0, 0, 0}, // two participants
		[]byte{0, 0, 0, 0}, lsn, // shard 0 at LSN 42
		[]byte{3, 0, 0, 0}, []byte{5, 0, 0, 0, 0, 0, 0, 0}) // shard 3 at LSN 5
	golden := map[byte][]byte{
		walVersion1:    cat([]byte{1}, three, put, ttl, del),
		walVersion:     cat([]byte{2}, lsn, three, put, ttl, del),
		walVersionSnap: cat([]byte{3}, lsn, three, put, ttl, del),
		walVersionTxn:  cat([]byte{4}, lsn, witness, three, put, ttl, del),
	}
	parts := []walPart{{shard: 0, lsn: 42}, {shard: 3, lsn: 5}}
	for version, payload := range golden {
		before := clock.Nanos()
		rec, ok := walDecodePayload(payload)
		after := clock.Nanos()
		if !ok {
			t.Fatalf("v%d golden payload rejected", version)
		}
		wantLSN := uint64(42)
		if version == walVersion1 {
			wantLSN = 0
		}
		if rec.version != version || rec.lsn != wantLSN {
			t.Fatalf("v%d decoded as version %d lsn %d", version, rec.version, rec.lsn)
		}
		if (version == walVersionTxn) != reflect.DeepEqual(rec.parts, parts) {
			t.Fatalf("v%d decoded participants %+v", version, rec.parts)
		}
		d := rec.entries[1].Deadline
		if d < before+int64(time.Hour) || d > after+int64(time.Hour) {
			t.Fatalf("v%d: an hour remaining decoded to deadline %d at clock %d..%d", version, d, before, after)
		}
		rec.entries[1].Deadline = 0
		want := []Entry{
			{Op: OpPut, Key: 7, Value: []byte("hi")},
			{Op: OpPut, Key: 8, Value: []byte("t")},
			{Op: OpDelete, Key: 9},
		}
		if !reflect.DeepEqual(rec.entries, want) {
			t.Fatalf("v%d decoded entries %+v", version, rec.entries)
		}
	}
	// The encoder, for the versions it writes. The remaining-time field is
	// the one place the clock enters, so it is compared as a time.
	ents := []Entry{
		{Op: OpPut, Key: 7, Value: []byte("hi")},
		{Op: OpPut, Key: 8, Deadline: clock.Nanos() + int64(time.Hour), Value: []byte("t")},
		{Op: OpDelete, Key: 9},
	}
	for version, recParts := range map[byte][]walPart{walVersion: nil, walVersionTxn: parts} {
		got := encodeRecord(nil, 42, recParts, ents)[walHeaderSize:]
		want := golden[version]
		remAt := len(want) - len(del) - len(ttl) + 9
		rem := int64(binary.LittleEndian.Uint64(got[remAt:]))
		if rem > int64(time.Hour) || rem < int64(time.Hour-time.Minute) {
			t.Fatalf("v%d encoded %d ns remaining of an hour", version, rem)
		}
		copy(got[remAt:], want[remAt:remAt+8])
		if !bytes.Equal(got, want) {
			t.Fatalf("v%d encodes as\n%x\nwant\n%x", version, got, want)
		}
	}
}
