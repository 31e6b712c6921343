package wire

// Native fuzz harness for the protocol decoders: whatever bytes a hostile
// or confused peer sends, DecodeRequest/DecodeResponse must reject cleanly
// — never panic, never over-read — and anything they do accept must
// re-encode to a stable canonical form. The stream decoder gets the same
// treatment over arbitrary byte streams.

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"github.com/bravolock/bravo/internal/frame"
)

// fuzzSeedRequests is a request per op with every optional field shape.
func fuzzSeedRequests() []Request {
	return []Request{
		{Op: OpGet, ID: 1, Key: 42},
		{Op: OpGet, ID: 2, Key: 42, MinLSN: 7},
		{Op: OpPut, ID: 3, Key: 9, Value: []byte("v")},
		{Op: OpPut, ID: 4, Key: 9, Value: []byte("v"), TTL: 1e9},
		{Op: OpDelete, ID: 6, Key: 1},
		{Op: OpMGet, ID: 7, Keys: []uint64{1, 2, 3}},
		{Op: OpMPut, ID: 8, Keys: []uint64{1, 2}, Values: [][]byte{{}, []byte("x")}},
		{Op: OpMDelete, ID: 9, Keys: []uint64{5}},
		{Op: OpStats, ID: 11},
		{Op: OpCas, ID: 12, Key: 3, Old: []byte("a"), New: []byte("b")},
		{Op: OpCas, ID: 13, Key: 3, New: []byte{}},
		{Op: OpCas, ID: 14, Key: 3, Old: []byte("a")},
		{Op: OpTxn, ID: 15,
			Conds:  []TxnCond{{Key: 1, Value: []byte("c")}, {Key: 2}},
			TxnOps: []TxnOp{{Key: 4, Value: []byte("v")}, {Key: 5, Del: true}, {Key: 6, Value: []byte{}, TTL: 1e9}}},
		{Op: OpReplStatus, ID: 16},
		{Op: OpReplStream, ID: 17, Key: 2, From: 9},
	}
}

// FuzzWireFrame throws arbitrary bytes at both payload decoders and, when
// one accepts, checks the canonical-form property: decode(encode(decode(p)))
// must reproduce encode(decode(p)) byte for byte. The strict decoders
// consume exactly what the encoders emit, so an accepted payload is its own
// canonical form.
func FuzzWireFrame(f *testing.F) {
	// The Append* encoders emit envelope+payload; the payload decoders see
	// only the body, so seeds are split before adding.
	body := func(enc []byte) []byte {
		payload, _, status := frame.Split(enc)
		if status != frame.OK {
			f.Fatalf("encoder emitted unsplittable frame: %x", enc)
		}
		return payload
	}
	for _, req := range fuzzSeedRequests() {
		f.Add(body(AppendRequest(nil, &req)))
	}
	for _, r := range retiredRequests() {
		f.Add(r.payload)
	}
	for _, resp := range []Response{
		{Op: OpGet, ID: 1, Value: []byte("v")},
		{Op: OpGet, ID: 2, Status: StatusNotFound},
		{Op: OpMGet, ID: 3, Values: [][]byte{nil, {}, []byte("x")}},
		{Op: OpPut, ID: 4, LSNs: []ShardLSN{{Shard: 1, LSN: 9}}},
		{Op: OpMPut, ID: 5, Applied: 2, LSNs: []ShardLSN{{Shard: 0, LSN: 1}, {Shard: 3, LSN: 4}}},
		{Op: OpStats, ID: 6, Stats: []byte(`{"n":1}`)},
		{Op: OpPut, ID: 7, Status: StatusReadOnly, Msg: "follower"},
		{Op: OpCas, ID: 8, Swapped: true, LSNs: []ShardLSN{{Shard: 1, LSN: 2, Epoch: 3}}},
		{Op: OpTxn, ID: 9, Committed: true, LSNs: []ShardLSN{{Shard: 0, LSN: 4}}},
		{Op: OpTxn, ID: 10, Mismatch: 77},
		{Op: OpReplStatus, ID: 11, Stats: []byte(`{"shards":1}`)},
		{Op: OpReplStream, ID: 12},
		{Op: OpReplStream, ID: 13, Status: StatusBadRequest, Msg: "bad shard"},
	} {
		f.Add(body(AppendResponse(nil, &resp)))
	}
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		splitBody := func(enc []byte) []byte {
			payload, _, status := frame.Split(enc)
			if status != frame.OK {
				t.Fatalf("encoder emitted unsplittable frame: %x", enc)
			}
			return payload
		}
		if req, ok := DecodeRequest(data); ok {
			enc := splitBody(AppendRequest(nil, &req))
			if !bytes.Equal(enc, data) {
				t.Fatalf("accepted request not canonical:\n in  %x\n out %x", data, enc)
			}
			req2, ok2 := DecodeRequest(enc)
			if !ok2 {
				t.Fatalf("re-encoded accepted request rejected: %x", enc)
			}
			if enc2 := splitBody(AppendRequest(nil, &req2)); !bytes.Equal(enc, enc2) {
				t.Fatalf("request canonical form unstable:\n %x\n %x", enc, enc2)
			}
		}
		if resp, ok := DecodeResponse(data); ok {
			enc := splitBody(AppendResponse(nil, &resp))
			if !bytes.Equal(enc, data) {
				t.Fatalf("accepted response not canonical:\n in  %x\n out %x", data, enc)
			}
			resp2, ok2 := DecodeResponse(enc)
			if !ok2 {
				t.Fatalf("re-encoded accepted response rejected: %x", enc)
			}
			if enc2 := splitBody(AppendResponse(nil, &resp2)); !bytes.Equal(enc, enc2) {
				t.Fatalf("response canonical form unstable:\n %x\n %x", enc, enc2)
			}
		}
	})
}

// FuzzWireStream feeds arbitrary byte streams to the frame-layer decoder:
// every frame it yields must carry a valid checksum-framed payload from the
// input, and rejection must be a clean error, never a panic or an
// over-read.
func FuzzWireStream(f *testing.F) {
	var stream []byte
	for _, req := range fuzzSeedRequests()[:3] {
		stream = AppendRequest(stream, &req) // already envelope+payload
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-3]) // torn tail frame
	corrupt := append([]byte(nil), stream...)
	corrupt[9] ^= 0xFF // flip a payload byte under the first CRC
	f.Add(corrupt)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0}) // insane declared length
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewStreamDecoder(bytes.NewReader(data), 1<<20)
		total := 0
		for {
			payload, err := dec.Next()
			if err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrCorruptFrame) {
					return
				}
				t.Fatalf("unexpected error class: %v", err)
			}
			total += frame.HeaderSize + len(payload)
			if total > len(data) {
				t.Fatalf("decoder yielded %d framed bytes from %d input bytes", total, len(data))
			}
		}
	})
}
