package kvs

// The write-ahead log: each shard owns an append-only log file, and the
// write section (kvShard.write, write.go) appends the entries it was handed
// as one CRC-framed record before applying them to the in-memory table.
// Group commit is the point: whatever run of entries reaches write — one
// Put, a MultiPut's same-shard run, a detached async queue — is ONE log
// record and, under SyncAlways, ONE fsync, so the dominant slow-path cost is
// amortized across the batch exactly the way BRAVO amortizes bias revocation
// across the reads that follow it. A lone Put pays a full fsync; a 64-key
// batch pays 1/64th of one per key.
//
// Ordering: a shard's WAL mutex is held across append+fsync+apply, so the
// log's record order IS the apply order and replay reconstructs exactly the
// state the maps held. Readers never touch the WAL mutex — the BRAVO read
// fast path stays one CAS even while a batch is being synced.
//
// Record format v2 (all integers little-endian, fixed width):
//
//	record  := u32 payloadLen | u32 crc32c(payload) | payload
//	payload := u8 version(=2) | u64 lsn | u32 count | count × entry
//	entry   := u8 opPut    | u64 key | u32 vlen | vlen bytes
//	         | u8 opPutTTL | u64 key | i64 remainingNanos | u32 vlen | vlen bytes
//	         | u8 opDelete | u64 key
//
// The LSN is a per-shard log sequence number, stamped under the WAL mutex
// so it increases by exactly one per committed record — the replication
// stream's resume token (see repl.go) and the read-your-writes token kvserv
// hands back on writes. Version-1 payloads (no LSN field) still decode:
// replay synthesizes sequential LSNs for them, so a pre-LSN directory
// upgrades in place on its first reopen and new records continue the
// sequence. Version 3 is the same layout as v2 but marks a full-state
// snapshot record; it appears only on the replication wire, never on disk.
//
// Version 4 is the multi-shard transaction witness record:
//
//	payload := u8 version(=4) | u64 lsn | u32 nparts
//	         | nparts × (u32 shard | u64 lsn) | u32 count | count × entry
//
// appended once per participant shard at that shard's own LSN; appliers
// keep only the entries whose keys hash to their shard (see walVersionTxn).
//
// TTL deadlines are persisted as *remaining* nanoseconds at append time,
// not absolute deadlines: the process clock (internal/clock) has a
// per-process epoch, so absolute values are meaningless across restarts.
// The decoder re-anchors them on its own clock — a TTL clock effectively
// pauses while the store is down, and never fires early. This file's codec
// (encodeRecord, walDecodePayload) is the only place the conversion happens
// and the only place the three on-disk opcodes appear: in memory an Entry
// has two ops and an absolute Deadline.
//
// Replay is prefix-consistent by construction: decoding stops at the first
// record whose header is short, whose length is insane, whose CRC
// mismatches, or whose payload is structurally malformed, and reports the
// byte offset of the last fully-valid record so the opener can truncate the
// torn tail before appending new records after it. A record is applied only
// after its payload decodes completely — a torn or corrupt tail can lose
// the suffix, never corrupt a key or value.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"github.com/bravolock/bravo/internal/clock"
	"github.com/bravolock/bravo/internal/frame"
)

// SyncPolicy selects when the WAL fsyncs.
type SyncPolicy int

const (
	// SyncNone never fsyncs: records are written to the file (and survive a
	// process crash) but an OS crash can lose the tail the kernel had not
	// flushed. The cheapest durable mode.
	SyncNone SyncPolicy = iota
	// SyncAlways fsyncs once per appended record — which, with group
	// commit, is once per shard batch, not once per key.
	SyncAlways
)

// String returns the flag spelling of p.
func (p SyncPolicy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncAlways:
		return "always"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses a -sync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "none":
		return SyncNone, nil
	case "always":
		return SyncAlways, nil
	}
	return 0, fmt.Errorf("kvs: sync policy %q (want none or always)", s)
}

const (
	// walVersion1 is the legacy pre-LSN payload layout, still decoded (with
	// synthesized LSNs) so existing directories upgrade in place.
	walVersion1 = 1
	// walVersion is the current on-disk payload layout: LSN-stamped.
	walVersion = 2
	// walVersionSnap marks a full-state snapshot record at its LSN. It is a
	// replication wire format only: a decoder may see it in a stream, the
	// appender never writes it to a log file.
	walVersionSnap = 3
	// walVersionTxn marks a multi-shard transaction commit record. The same
	// record — all of the transaction's entries, across every participant
	// shard — is appended once to EACH participant's log at that shard's own
	// next LSN, together with the participant list and the LSN each
	// participant assigned. Appliers (recovery, replication) keep only the
	// entries whose keys hash to their own shard, so the cross-shard copies
	// are witnesses, not duplication: if a crash tears the commit so that
	// only some participants' copies reached disk, any surviving copy lets
	// recovery roll the missing participants forward and restore atomicity
	// (see openDurable). v2 logs still load — single-shard transactions
	// commit as plain v2 records and never pay the witness encoding.
	walVersionTxn = 4

	// walHeaderSize is the shared frame envelope's header (internal/frame):
	// u32 payload length + u32 CRC32-C.
	walHeaderSize = frame.HeaderSize

	walOpPut    = 1
	walOpPutTTL = 2
	walOpDelete = 3
)

// errWALClosed reports an append attempted after Close.
var errWALClosed = errors.New("kvs: write-ahead log is closed")

// shardWAL is one shard's log. mu serializes append+fsync+apply (writers
// and checkpoints take it before the shard lock; readers never take it), so
// record order is apply order. It is nil on volatile engines — lock and
// unlock are nil-receiver no-ops, so the write section's only branch on
// durability is the one nil check around append.
type shardWAL struct {
	mu     sync.Mutex
	f      *os.File
	policy SyncPolicy
	buf    []byte // record scratch, reused under mu
	// size is the file length up to the last fully-written record; a
	// partial write rolls back to it (see commit) so no record is ever
	// appended beyond torn bytes, where replay could not reach it.
	size   int64
	closed bool
	err    error // first write/sync error; the engine stays available in memory
	// lsn is the LSN of the last committed record (guarded by mu); append
	// stamps lsn+1 and a successful commit advances it, so a failed append
	// reuses its LSN for the retry and the log never has holes.
	lsn uint64

	// applied publishes lsn after the record's entries are applied to the
	// shard map (see unlock): the lock-free answer to "what LSN does a read
	// against this shard observe", read by ShardLSN and /repl/status.
	applied atomic.Uint64
	// gen is a seqlock over the log files: rotate (holding mu) bumps it to
	// odd on entry and back to even on exit, so the files are stable
	// exactly when gen is even. Replication readers sample it around
	// their lockless file reads — an even, unchanged gen brackets a read
	// no rotation overlapped; odd, or changed, means retry. A single bump
	// would miss a rotation already in flight when the read starts.
	gen atomic.Uint64

	records atomic.Uint64
	keys    atomic.Uint64
	syncs   atomic.Uint64
	bytes   atomic.Uint64
	errs    atomic.Uint64
}

// lock acquires the WAL mutex; no-op without a WAL.
func (w *shardWAL) lock() {
	if w != nil {
		w.mu.Lock()
	}
}

// unlock publishes the applied LSN and releases the WAL mutex; no-op
// without a WAL. The write paths call it after the record's entries are in
// the shard map, so applied never names a record whose effects a read
// could still miss.
func (w *shardWAL) unlock() {
	if w != nil {
		w.applied.Store(w.lsn)
		w.mu.Unlock()
	}
}

// encodeRecord appends one unsealed record to b: room for the frame header,
// then the payload — a plain record (walVersion) when parts is nil, a
// transaction witness (walVersionTxn) carrying parts otherwise — stamped lsn
// and holding ents. An OpPut's Deadline is written as the time remaining now.
func encodeRecord(b []byte, lsn uint64, parts []walPart, ents []Entry) []byte {
	version := byte(walVersion)
	if parts != nil {
		version = walVersionTxn
	}
	b = append(b, make([]byte, walHeaderSize)...)
	b = append(b, version)
	b = binary.LittleEndian.AppendUint64(b, lsn)
	if parts != nil {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(parts)))
		for _, p := range parts {
			b = binary.LittleEndian.AppendUint32(b, p.shard)
			b = binary.LittleEndian.AppendUint64(b, p.lsn)
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ents)))
	for i := range ents {
		e := &ents[i]
		op := byte(walOpPut)
		switch {
		case e.Op == OpDelete:
			op = walOpDelete
		case e.Deadline != 0:
			op = walOpPutTTL
		}
		b = append(b, op)
		b = binary.LittleEndian.AppendUint64(b, e.Key)
		if op == walOpDelete {
			continue
		}
		if op == walOpPutTTL {
			b = binary.LittleEndian.AppendUint64(b, uint64(e.Deadline-clock.Nanos()))
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(e.Value)))
		b = append(b, e.Value...)
	}
	return b
}

// append logs ents as one record at the shard's next LSN and commits it. The
// caller holds mu. With parts it is a transaction witness: ents is then
// every participant's entries, the caller holds mu on EVERY participant's
// WAL (Txn's lock phase; recovery's roll-forward runs alone), and own is how
// many of them this shard owns — its share of wal_keys, the rest being
// framing.
func (w *shardWAL) append(parts []walPart, ents []Entry, own int) {
	w.buf = encodeRecord(w.buf[:0], w.lsn+1, parts, ents)
	w.commit(own)
}

// commit frames the pending record (length + CRC over the payload), writes
// it, and fsyncs under SyncAlways. Write and sync failures are recorded
// (first error wins, WALError reports it) rather than propagated: the
// engine keeps serving from memory with durability degraded, the same
// availability-over-durability call redis makes on a failing AOF disk.
func (w *shardWAL) commit(count int) {
	if w.closed {
		w.setErr(errWALClosed)
		return
	}
	frame.Seal(w.buf)
	n, err := w.f.Write(w.buf)
	w.bytes.Add(uint64(n))
	if err != nil {
		w.setErr(err)
		// Roll the file back to the last complete record: replay stops at
		// torn bytes, so anything appended beyond them would be durable in
		// name only. If even the rollback fails, stop appending for good.
		if terr := w.f.Truncate(w.size); terr != nil {
			w.closed = true
		}
		return
	}
	w.size += int64(n)
	w.lsn++
	w.records.Add(1)
	w.keys.Add(uint64(count))
	if w.policy == SyncAlways {
		if err := w.f.Sync(); err != nil {
			w.setErr(err)
			return
		}
		w.syncs.Add(1)
	}
}

// setErr records the first failure; the caller holds mu.
func (w *shardWAL) setErr(err error) {
	w.errs.Add(1)
	if w.err == nil {
		w.err = err
	}
}

// rotate makes the current log the "old" generation and starts a fresh
// one: sync, then rename cur → old and reopen cur empty. Called by
// checkpoints with mu held, so no append can interleave with the swap.
//
// If a previous checkpoint died between its rotation and its prune, old
// already exists and still holds records the published snapshot may not
// cover — renaming over it would destroy the only copy of acknowledged
// writes. In that case the current log is *appended* to old and truncated
// in place instead: replay order (snap, old, cur) stays correct, and a
// crash mid-merge only duplicates records that cur still holds, which
// replay applies idempotently in log order.
func (w *shardWAL) rotate(cur, old string) error {
	if w.closed {
		return errWALClosed
	}
	// Seqlock write section: gen is odd for the whole swap (every exit
	// path), so a lockless reader either sees odd — retry — or sees the
	// same even value on both sides of a read no rotation overlapped.
	w.gen.Add(1)
	defer w.gen.Add(1)
	if err := w.f.Sync(); err != nil {
		w.setErr(err)
		return err
	}
	if _, err := os.Stat(old); err == nil {
		if err := appendFile(old, cur); err != nil {
			w.setErr(err)
			return err
		}
		if err := w.f.Truncate(0); err != nil {
			w.closed = true
			w.setErr(err)
			return err
		}
		w.size = 0
		return nil
	} else if !os.IsNotExist(err) {
		w.setErr(err)
		return err
	}
	if err := w.f.Close(); err != nil {
		w.setErr(err)
		return err
	}
	if err := os.Rename(cur, old); err != nil {
		// Try to keep the engine writable on the old file.
		if f, ferr := os.OpenFile(cur, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); ferr == nil {
			w.f = f
		} else {
			w.closed = true
		}
		w.setErr(err)
		return err
	}
	f, err := os.OpenFile(cur, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		w.closed = true
		w.setErr(err)
		return err
	}
	w.f = f
	w.size = 0
	return nil
}

// appendFile appends src's contents to dst and fsyncs dst.
func appendFile(dst, src string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return writeFileSync(dst, os.O_APPEND, data)
}

// walPart names one participant of a multi-shard transaction record: the
// shard and the LSN that shard assigned to its copy of the record.
type walPart struct {
	shard uint32
	lsn   uint64
}

// walRecord is one decoded record: its payload version (distinguishing
// snapshot stream records from incremental ones), its LSN (zero for legacy
// v1 payloads, which carry none), and its entries, whose values alias the
// decoded buffer. Transaction records (walVersionTxn) also carry the
// participant list; parts is nil otherwise.
type walRecord struct {
	version byte
	lsn     uint64
	parts   []walPart
	entries []Entry
}

// txnKey identifies a transaction across its per-shard witness copies: the
// first (lowest-shard) participant's (shard, LSN) pair is unique because
// LSNs are assigned under that shard's WAL mutex.
func (r *walRecord) txnKey() walPart {
	return r.parts[0]
}

// frame-splitting outcomes, aliased from the shared codec so the WAL's
// torn-tail vocabulary reads locally.
const (
	frameOK         = frame.OK         // a complete, CRC-valid record
	frameIncomplete = frame.Incomplete // data ends inside the header or payload
	frameCorrupt    = frame.Corrupt    // full length available but CRC or size insane
)

// splitFrame examines the record at the head of data through the shared
// codec (internal/frame — the WAL, the replication stream, and the binary
// wire all carry the same envelope). Log replay treats frameIncomplete and
// frameCorrupt both as the torn-tail stop; stream consumers reconnect only
// on frameCorrupt.
func splitFrame(data []byte) (payload []byte, n int, status frame.Status) {
	return frame.Split(data)
}

// walReplay decodes records from data, invoking apply once per fully-valid
// record, and returns the byte offset just past the last valid record plus
// the highest LSN seen. Decoding stops — without applying anything from
// the bad record — at the first short header, oversize length, CRC
// mismatch, or malformed payload: the torn-tail rule. Legacy v1 records
// carry no LSN; they are assigned sequential LSNs continuing from last, so
// a pre-LSN log upgrades in place. Snapshot-version records never appear
// in log files and stop replay like corruption. It never panics, whatever
// the bytes (FuzzWALReplay).
func walReplay(data []byte, last uint64, apply func(rec walRecord)) (valid int, lastLSN uint64) {
	off := 0
	for {
		payload, n, status := splitFrame(data[off:])
		if status != frameOK {
			return off, last
		}
		rec, ok := walDecodePayload(payload)
		if !ok || rec.version == walVersionSnap {
			return off, last
		}
		if rec.version == walVersion1 {
			rec.lsn = last + 1
		}
		apply(rec)
		if rec.lsn > last {
			last = rec.lsn
		}
		off += n
	}
}

// walDecodePayload parses one record payload, strictly: every entry must
// parse and the payload must end exactly at the last one.
func walDecodePayload(p []byte) (walRecord, bool) {
	var rec walRecord
	if len(p) < 1 {
		return rec, false
	}
	rec.version = p[0]
	off := 1
	switch rec.version {
	case walVersion1:
	case walVersion, walVersionSnap:
		if len(p) < 1+8 {
			return rec, false
		}
		rec.lsn = binary.LittleEndian.Uint64(p[1:])
		off = 9
	case walVersionTxn:
		if len(p) < 1+8+4 {
			return rec, false
		}
		rec.lsn = binary.LittleEndian.Uint64(p[1:])
		nparts := int(binary.LittleEndian.Uint32(p[9:]))
		off = 13
		// A witness record exists only for multi-shard commits, each
		// participant entry is 12 bytes, and the list is canonical: shards
		// strictly ascending, LSNs nonzero. Anything else is malformed, not
		// merely unusual — the strictness is what lets the fuzzers prove
		// the decoder total. The record's own LSN normally equals its
		// shard's entry in the list, but a recovery roll-forward re-appends
		// a witness at whatever LSN the repaired shard actually reached, so
		// that is a convention, not a rule the decoder can enforce.
		if nparts < 2 || nparts > (len(p)-off)/12 {
			return rec, false
		}
		parts := make([]walPart, nparts)
		for i := range parts {
			parts[i] = walPart{
				shard: binary.LittleEndian.Uint32(p[off:]),
				lsn:   binary.LittleEndian.Uint64(p[off+4:]),
			}
			off += 12
			if parts[i].lsn == 0 || (i > 0 && parts[i].shard <= parts[i-1].shard) {
				return rec, false
			}
		}
		rec.parts = parts
	default:
		return rec, false
	}
	if len(p)-off < 4 {
		return rec, false
	}
	count := int(binary.LittleEndian.Uint32(p[off:]))
	off += 4
	// Each entry is at least 9 bytes; anything claiming more is malformed,
	// and the bound keeps the preallocation honest on adversarial input.
	if count < 0 || count > (len(p)-off)/9 {
		return rec, false
	}
	entries := make([]Entry, 0, count)
	for i := 0; i < count; i++ {
		if len(p)-off < 9 {
			return rec, false
		}
		op := p[off]
		e := Entry{Op: OpPut, Key: binary.LittleEndian.Uint64(p[off+1:])}
		off += 9
		switch op {
		case walOpDelete:
			e.Op = OpDelete
		case walOpPut, walOpPutTTL:
			if op == walOpPutTTL {
				if len(p)-off < 8 {
					return rec, false
				}
				e.Deadline = deadlineFromRemaining(int64(binary.LittleEndian.Uint64(p[off:])))
				off += 8
			}
			if len(p)-off < 4 {
				return rec, false
			}
			vlen := int(binary.LittleEndian.Uint32(p[off:]))
			off += 4
			if vlen < 0 || vlen > len(p)-off {
				return rec, false
			}
			e.Value = p[off : off+vlen]
			off += vlen
		default:
			return rec, false
		}
		entries = append(entries, e)
	}
	rec.entries = entries
	return rec, off == len(p)
}

// deadlineFromRemaining re-anchors a persisted remaining-nanoseconds value
// on the current process clock: the decode half of the Deadline conversion
// (the record and snapshot decoders call it, nothing else). Overflow saturates to "never" the way
// ttlDeadline does, and the result avoids 0, which putLocked reserves for
// "no TTL" — an entry that lands exactly on 0 is long expired anyway.
func deadlineFromRemaining(rem int64) int64 {
	now := clock.Nanos()
	d := now + rem
	if rem > 0 && d < now {
		return math.MaxInt64
	}
	if d == 0 {
		return -1
	}
	return d
}
