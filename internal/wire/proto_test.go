package wire

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/frame"
)

// splitOne unwraps one frame's payload, failing on anything but a clean
// single-frame buffer.
func splitOne(t *testing.T, f []byte) []byte {
	t.Helper()
	payload, n, status := frame.Split(f)
	if status != frame.OK || n != len(f) {
		t.Fatalf("frame.Split = status %v, consumed %d of %d", status, n, len(f))
	}
	return payload
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: OpGet, ID: 1, Key: 42},
		{Op: OpGet, ID: 2, Key: 42, MinLSN: 900},
		{Op: OpPut, ID: 3, Key: 7, Value: []byte("hello")},
		{Op: OpPut, ID: 4, Key: 7, Value: []byte{}, TTL: 5 * time.Second},
		{Op: OpDelete, ID: 6, Key: 99},
		{Op: OpMGet, ID: 7, Keys: []uint64{1, 2, 3}},
		{Op: OpMGet, ID: 8, Keys: []uint64{}, MinLSN: 12},
		{Op: OpMPut, ID: 9, Keys: []uint64{10, 20}, Values: [][]byte{[]byte("a"), {}}},
		{Op: OpMPut, ID: 10, Keys: []uint64{}, Values: [][]byte{}, TTL: time.Minute},
		{Op: OpMDelete, ID: 11, Keys: []uint64{5}},
		{Op: OpStats, ID: 13},
		{Op: OpReplStatus, ID: 14},
		{Op: OpReplStream, ID: 15, Key: 3, From: 1 << 40},
	}
	for _, want := range cases {
		f := AppendRequest(nil, &want)
		got, ok := DecodeRequest(splitOne(t, f))
		if !ok {
			t.Fatalf("%v id=%d: decode failed", want.Op, want.ID)
		}
		// Canonicalize: empty and nil slices are the same on the wire.
		norm := func(r *Request) {
			if len(r.Value) == 0 {
				r.Value = nil
			}
			if len(r.Keys) == 0 {
				r.Keys = nil
			}
			if len(r.Values) == 0 {
				r.Values = nil
			}
			for i, v := range r.Values {
				if len(v) == 0 {
					r.Values[i] = nil
				}
			}
		}
		norm(&want)
		norm(&got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{Op: OpGet, ID: 1, Value: []byte("v")},
		{Op: OpGet, ID: 2, Status: StatusNotFound, Msg: "no such key"},
		{Op: OpPut, ID: 3, LSNs: []ShardLSN{{Shard: 2, LSN: 77}}},
		{Op: OpDelete, ID: 4},
		{Op: OpMGet, ID: 5, Values: [][]byte{[]byte("a"), nil, []byte("")}},
		{Op: OpMPut, ID: 6, Applied: 9, LSNs: []ShardLSN{{Shard: 0, LSN: 5}, {Shard: 3, LSN: 6}}},
		{Op: OpMDelete, ID: 7, Applied: 2},
		{Op: OpStats, ID: 9, Stats: []byte(`{"shards":4}`)},
		{Op: OpPut, ID: 10, Status: StatusReadOnly, Msg: "follower is read-only"},
		{Op: OpMGet, ID: 11, Status: StatusConflict, Msg: "min_lsn not applied"},
		{Op: OpReplStatus, ID: 12, Stats: []byte(`{"shards":2}`)},
		{Op: OpReplStream, ID: 13},
		{Op: OpReplStream, ID: 14, Status: StatusConflict, Msg: "engine is volatile"},
	}
	for _, want := range cases {
		f := AppendResponse(nil, &want)
		got, ok := DecodeResponse(splitOne(t, f))
		if !ok {
			t.Fatalf("%v id=%d: decode failed", want.Op, want.ID)
		}
		norm := func(r *Response) {
			if len(r.Value) == 0 {
				r.Value = nil
			}
			if len(r.Stats) == 0 {
				r.Stats = nil
			}
			if len(r.Values) == 0 {
				r.Values = nil
			}
			for i, v := range r.Values {
				if v != nil && len(v) == 0 {
					r.Values[i] = []byte{}
				}
			}
		}
		norm(&want)
		norm(&got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestMGetAbsentVsEmpty pins the wire distinction between a missing key
// (nil) and a present empty value — the same distinction the engine makes.
func TestMGetAbsentVsEmpty(t *testing.T) {
	f := AppendResponse(nil, &Response{Op: OpMGet, ID: 1, Values: [][]byte{nil, {}}})
	got, ok := DecodeResponse(splitOne(t, f))
	if !ok || len(got.Values) != 2 {
		t.Fatalf("decode: ok=%v values=%v", ok, got.Values)
	}
	if got.Values[0] != nil {
		t.Fatalf("absent entry decoded non-nil: %v", got.Values[0])
	}
	if got.Values[1] == nil || len(got.Values[1]) != 0 {
		t.Fatalf("empty entry decoded %v, want present-empty", got.Values[1])
	}
}

// retiredRequest is a payload only an older client sends, built from a
// valid one: a FLUSH (op 7) or a PUT carrying the async flag (1<<1).
type retiredRequest struct {
	name    string
	payload []byte
}

func retiredRequests() []retiredRequest {
	flush := AppendRequest(nil, &Request{Op: OpStats, ID: 10})[frame.HeaderSize:]
	flush[1] = 7
	async := AppendRequest(nil, &Request{Op: OpPut, ID: 5, Key: 9, Value: []byte("v")})[frame.HeaderSize:]
	async[2] |= 1 << 1
	return []retiredRequest{{"op 7 (FLUSH)", flush}, {"PUT with flag 1<<1 (async)", async}}
}

// TestDecodeRequestRefusesRetired: the retired op and flag are refused, not
// decoded as something else, so an old client's FLUSH or async PUT cannot
// be mistaken for a request a new server serves.
func TestDecodeRequestRefusesRetired(t *testing.T) {
	for _, r := range retiredRequests() {
		if req, ok := DecodeRequest(r.payload); ok {
			t.Errorf("%s: decoded as %+v, want refused", r.name, req)
		}
	}
}

// TestDecodeRequestStrict rejects truncations, trailing garbage, version
// and op mismatches — every malformed shape must decode to (zero, false),
// never panic.
func TestDecodeRequestStrict(t *testing.T) {
	valid := splitOne(t, AppendRequest(nil, &Request{
		Op: OpMPut, ID: 5, TTL: time.Second, MinLSN: 9,
		Keys: []uint64{1, 2}, Values: [][]byte{[]byte("aa"), []byte("b")},
	}))
	if _, ok := DecodeRequest(valid); !ok {
		t.Fatal("control: valid payload rejected")
	}
	// Every truncation of a valid payload must be rejected.
	for cut := 0; cut < len(valid); cut++ {
		if _, ok := DecodeRequest(valid[:cut]); ok {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	// Trailing garbage.
	if _, ok := DecodeRequest(append(append([]byte(nil), valid...), 0)); ok {
		t.Fatal("trailing byte accepted")
	}
	// Wrong version.
	bad := append([]byte(nil), valid...)
	bad[0] = Version + 1
	if _, ok := DecodeRequest(bad); ok {
		t.Fatal("wrong version accepted")
	}
	// Unknown op.
	bad = append(bad[:0], valid...)
	bad[1] = 200
	if _, ok := DecodeRequest(bad); ok {
		t.Fatal("unknown op accepted")
	}
	// Adversarial MPUT count: huge count over a small payload must be
	// rejected before any allocation proportional to it.
	huge := splitOne(t, AppendRequest(nil, &Request{Op: OpMPut, Keys: []uint64{1}, Values: [][]byte{[]byte("x")}}))
	huge = append([]byte(nil), huge...)
	// count field sits right after the 11-byte head (no ttl/minLSN flags).
	huge[11] = 0xFF
	huge[12] = 0xFF
	huge[13] = 0xFF
	huge[14] = 0x7F
	if _, ok := DecodeRequest(huge); ok {
		t.Fatal("adversarial MPUT count accepted")
	}
}

func TestDecodeResponseStrict(t *testing.T) {
	valid := splitOne(t, AppendResponse(nil, &Response{
		Op: OpMGet, ID: 3, Values: [][]byte{[]byte("aa"), nil},
		LSNs: []ShardLSN{{Shard: 1, LSN: 2}},
	}))
	if _, ok := DecodeResponse(valid); !ok {
		t.Fatal("control: valid payload rejected")
	}
	for cut := 0; cut < len(valid); cut++ {
		if _, ok := DecodeResponse(valid[:cut]); ok {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	if _, ok := DecodeResponse(append(append([]byte(nil), valid...), 0)); ok {
		t.Fatal("trailing byte accepted")
	}
}

// TestStreamDecoder drives the decoder over frames delivered in
// adversarially small chunks and verifies the buffered-first contract.
func TestStreamDecoder(t *testing.T) {
	var stream []byte
	payloads := [][]byte{[]byte("one"), []byte(""), bytes.Repeat([]byte("z"), 100_000)}
	for _, p := range payloads {
		stream = AppendRequest(stream, &Request{Op: OpPut, Key: 1, Value: p})
	}
	// Feed one byte at a time.
	dec := NewStreamDecoder(&oneByteReader{data: stream}, 0)
	for i, want := range payloads {
		payload, err := dec.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		req, ok := DecodeRequest(payload)
		if !ok || !bytes.Equal(req.Value, want) {
			t.Fatalf("frame %d: ok=%v value len %d, want %d", i, ok, len(req.Value), len(want))
		}
	}
	if _, err := dec.Next(); err == nil {
		t.Fatal("stream end: expected error")
	}
}

// TestStreamDecoderBufferedFirst pins the drain contract: frames already
// buffered are yielded without touching the reader, even after it fails.
func TestStreamDecoderBufferedFirst(t *testing.T) {
	f := frame.Append(frame.Append(nil, []byte("a")), []byte("b"))
	dec := NewStreamDecoder(&readAllThenFail{data: f}, 0)
	for _, want := range []string{"a", "b"} {
		p, err := dec.Next()
		if err != nil || string(p) != want {
			t.Fatalf("Next = %q, %v; want %q", p, err, want)
		}
	}
	if _, err := dec.Next(); err == nil {
		t.Fatal("drained stream: expected the reader's error")
	}
}

func TestStreamDecoderCorrupt(t *testing.T) {
	f := frame.Append(nil, []byte("payload"))
	f[frame.HeaderSize]++ // CRC mismatch
	dec := NewStreamDecoder(bytes.NewReader(f), 0)
	if _, err := dec.Next(); err != ErrCorruptFrame {
		t.Fatalf("corrupt frame: %v, want ErrCorruptFrame", err)
	}
}

func TestStreamDecoderOverCap(t *testing.T) {
	f := frame.Append(nil, bytes.Repeat([]byte("x"), 4096))
	dec := NewStreamDecoder(bytes.NewReader(f), 1024)
	_, err := dec.Next()
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("cap")) {
		t.Fatalf("over-cap frame: %v, want wrapped ErrCorruptFrame", err)
	}
}

type oneByteReader struct {
	data []byte
	pos  int
}

func (r *oneByteReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, errEOF{}
	}
	p[0] = r.data[r.pos]
	r.pos++
	return 1, nil
}

type errEOF struct{}

func (errEOF) Error() string { return "EOF" }

// readAllThenFail yields the whole buffer in one Read, then errors.
type readAllThenFail struct {
	data []byte
	done bool
}

func (r *readAllThenFail) Read(p []byte) (int, error) {
	if r.done {
		return 0, errEOF{}
	}
	n := copy(p, r.data)
	if n < len(r.data) {
		r.data = r.data[n:]
		return n, nil
	}
	r.done = true
	return n, nil
}

// benchPayload returns the payload of frame f, the input the decode
// benchmarks time.
func benchPayload(b *testing.B, f []byte) []byte {
	payload, _, status := frame.Split(f)
	if status != frame.OK {
		b.Fatalf("frame.Split = %v", status)
	}
	return payload
}

// BenchmarkDecodeGet times the server's per-request decode of a GET.
func BenchmarkDecodeGet(b *testing.B) {
	p := benchPayload(b, AppendRequest(nil, &Request{Op: OpGet, ID: 1, Key: 7}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := DecodeRequest(p); !ok {
			b.Fatal("decode failed")
		}
	}
}

// BenchmarkDecodeGetResponse times the client's decode of a 128-byte GET hit.
func BenchmarkDecodeGetResponse(b *testing.B) {
	p := benchPayload(b, AppendResponse(nil, &Response{Op: OpGet, ID: 1, Value: make([]byte, 128)}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := DecodeResponse(p); !ok {
			b.Fatal("decode failed")
		}
	}
}

// BenchmarkDecodeMPut16 times the server's decode of a 16-key MPUT of
// 128-byte values.
func BenchmarkDecodeMPut16(b *testing.B) {
	req := Request{Op: OpMPut, ID: 1, Keys: make([]uint64, 16), Values: make([][]byte, 16)}
	for i := range req.Keys {
		req.Keys[i], req.Values[i] = uint64(i), make([]byte, 128)
	}
	p := benchPayload(b, AppendRequest(nil, &req))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := DecodeRequest(p); !ok {
			b.Fatal("decode failed")
		}
	}
}
