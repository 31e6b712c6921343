package repl

// FuzzReplStream feeds arbitrary bytes through the follower's stream
// path — the decode-apply loop streamOnce runs after the primary's reply, follow —
// into a real engine. Whatever the wire carries (truncated frames, bit
// flips, bogus LSNs, hostile lengths), the follower must never panic and
// never corrupt the applied store: only CRC-valid frames whose LSNs
// continue the sequence (or snapshot frames) may change state, and the
// applied LSN must track exactly the records that applied.

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/bravolock/bravo/internal/frame"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/wire"
)

// newFuzzFollower builds a follower shell around a 1-shard volatile
// engine, bypassing Open (there is no primary; the fuzzer is the wire).
func newFuzzFollower(t testing.TB) *Follower {
	engine, err := kvs.NewSharded(1, mkStd)
	if err != nil {
		t.Fatal(err)
	}
	return &Follower{
		engine:    engine,
		shards:    1,
		applied:   make([]atomic.Uint64, 1),
		records:   make([]atomic.Uint64, 1),
		snapshots: make([]atomic.Uint64, 1),
		notify:    make(chan struct{}),
	}
}

// captureStream renders a real primary's stream bytes for seeds: a
// snapshot frame followed by incremental records.
func captureStream(f *testing.F) []byte {
	dir := f.TempDir()
	engine, err := kvs.OpenSharded(dir, 1, mkStd, kvs.SyncNone)
	if err != nil {
		f.Fatal(err)
	}
	defer engine.Close()
	engine.Put(1, []byte("one"))
	engine.MultiPut([]uint64{2, 3}, [][]byte{[]byte("two"), []byte("three")})
	engine.PutTTL(4, []byte("soon"), 1<<40)
	engine.Delete(2)
	frame, lsn, err := engine.ReplSnapshotFrame(0)
	if err != nil {
		f.Fatal(err)
	}
	_ = lsn
	var cur kvs.ReplCursor
	tail, err := engine.ReplRead(0, &cur, 1<<30)
	if err != nil {
		f.Fatal(err)
	}
	return append(frame, tail...)
}

func FuzzReplStream(f *testing.F) {
	stream := captureStream(f)
	f.Add(stream)
	f.Add(stream[:len(stream)/2]) // truncated mid-frame
	f.Add(stream[3:])             // misaligned start
	for _, i := range []int{1, 9, 13, len(stream) - 2} {
		mut := append([]byte(nil), stream...)
		mut[i] ^= 0x40 // bit flips in header, version, LSN, tail
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0}) // insane length

	f.Fuzz(func(t *testing.T, data []byte) {
		fl := newFuzzFollower(t)
		// The applied LSN only ever moves to the record's LSN, and only
		// snapshots may jump it.
		applies := 0
		var last uint64
		fl.cfg.OnApply = func(_ int, lsn uint64, snapshot bool) {
			if got := fl.applied[0].Load(); got != lsn {
				t.Fatalf("applied LSN %d after a record at %d", got, lsn)
			}
			if !snapshot && lsn != last+1 {
				t.Fatalf("incremental record jumped applied %d → %d", last, lsn)
			}
			last = lsn
			applies++
		}
		// The puller's own loop: it stops at the first corrupt frame,
		// gap or end of bytes, where a real follower reconnects.
		err := fl.follow(0, wire.NewStreamDecoder(bytes.NewReader(data), frame.HeaderSize+frame.MaxPayload))
		switch {
		case err == io.EOF, err == io.ErrUnexpectedEOF:
		case errors.Is(err, wire.ErrCorruptFrame), errors.Is(err, kvs.ErrReplCorruptFrame):
		case err != nil && strings.Contains(err.Error(), "stream gap"):
		default:
			t.Fatalf("follow surfaced unexpected error %v", err)
		}
		// The store must remain coherent, whatever was fed: every read
		// path works, and state only exists if something actually applied.
		eng := fl.engine
		if n := eng.Len(); n > 0 && applies == 0 {
			t.Fatalf("engine holds %d keys but nothing applied", n)
		}
		eng.Range(func(_ uint64, v []byte) bool { return len(v) >= 0 })
		_ = eng.Snapshot()
	})
}
