package kvserv

// Fuzzes the wire front-end with raw socket bytes: whatever a peer writes
// — valid pipelined bursts, malformed bodies in sound envelopes, corrupt
// frames, truncated streams — the server must never panic, must answer
// only with decodable response frames, and must always release the
// connection (answer-and-continue or close; never hang).

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/frame"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/wire"
)

// fuzzWireAddr lazily starts one shared wire server for the whole fuzz
// process; iterations dial it and the OS reclaims it at exit. Sharing is
// sound because every property checked is per-connection.
var fuzzWireAddr = sync.OnceValue(func() string {
	engine, err := kvs.NewSharded(8, func() rwl.RWLock { return core.New(new(stdrw.Lock)) })
	if err != nil {
		panic(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	srv := New(engine, Config{ReapInterval: -1})
	go srv.ServeWire(l)
	return l.Addr().String()
})

func FuzzWireServer(f *testing.F) {
	// AppendRequest emits the complete frame, envelope included.
	frameReq := func(req *wire.Request) []byte {
		return wire.AppendRequest(nil, req)
	}
	f.Add(frameReq(&wire.Request{Op: wire.OpGet, ID: 1, Key: 42}))
	f.Add(frameReq(&wire.Request{Op: wire.OpPut, ID: 2, Key: 7, Value: []byte("v")}))
	f.Add(frameReq(&wire.Request{Op: wire.OpMPut, ID: 3, Keys: []uint64{1, 2}, Values: [][]byte{[]byte("a"), []byte("b")}}))
	f.Add(frameReq(&wire.Request{Op: wire.OpMGet, ID: 4, Keys: []uint64{1, 2, 3}}))
	f.Add(frameReq(&wire.Request{Op: wire.OpStats, ID: 5}))
	f.Add(frameReq(&wire.Request{Op: wire.OpReplStream, ID: 6, From: 1}))        // a volatile server: 409
	f.Add(frame.Append(nil, []byte{wire.Version, 7, 0, 6, 0, 0, 0, 0, 0, 0, 0})) // the retired FLUSH: refused
	// Pipelined burst: several valid frames in one write.
	burst := append(frameReq(&wire.Request{Op: wire.OpPut, ID: 7, Key: 1, Value: []byte("x")}),
		frameReq(&wire.Request{Op: wire.OpGet, ID: 8, Key: 1})...)
	f.Add(burst)
	// Malformed body in a sound envelope: header parses, body does not.
	f.Add(frame.Append(nil, append([]byte{wire.Version, byte(wire.OpMPut), 0, 99, 0, 0, 0, 0, 0, 0, 0}, 0xFF, 0xFF, 0xFF)))
	// Corrupt envelope: flipped payload byte under the CRC.
	bad := frameReq(&wire.Request{Op: wire.OpGet, ID: 9, Key: 3})
	bad[len(bad)-1] ^= 0xFF
	f.Add(bad)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0}) // insane declared length
	f.Add([]byte{})

	sentinel := frameReq(&wire.Request{Op: wire.OpGet, ID: ^uint64(0), Key: 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		nc, err := net.Dial("tcp", fuzzWireAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		// The fuzz bytes, then a known-good request, then half-close: if the
		// garbage did not sever the framing, the sentinel must be answered;
		// either way the server must reach EOF and hand the stream back.
		if _, err := nc.Write(append(append([]byte(nil), data...), sentinel...)); err != nil {
			return // server already closed on leading garbage: a valid outcome
		}
		nc.(*net.TCPConn).CloseWrite()

		dec := wire.NewStreamDecoder(nc, wire.DefaultMaxFrame)
		for {
			payload, err := dec.Next()
			if err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
					return
				}
				t.Fatalf("response stream: %v", err) // corrupt server frames are bugs
			}
			if _, ok := wire.DecodeResponse(payload); !ok {
				t.Fatalf("server emitted undecodable response: %x", payload)
			}
		}
	})
}

// TestWireFuzzSeeds replays the interesting seed shapes as a plain test so
// ordinary `go test` runs exercise them even where the fuzz engine is not
// invoked (the corpus above only runs under the fuzz target).
func TestWireFuzzSeeds(t *testing.T) {
	addr, _, _ := startWireServer(t, nil, Config{ReapInterval: -1})
	valid := wire.AppendRequest(nil, &wire.Request{Op: wire.OpGet, ID: 1, Key: 42})
	malformed := frame.Append(nil, append([]byte{wire.Version, byte(wire.OpMPut), 0, 99, 0, 0, 0, 0, 0, 0, 0}, 0xFF, 0xFF, 0xFF))
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0xFF
	for _, tc := range [][]byte{valid, malformed, corrupt, {0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0}, bytes.Repeat([]byte{0}, 64)} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		nc.Write(tc)
		nc.(*net.TCPConn).CloseWrite()
		dec := wire.NewStreamDecoder(nc, wire.DefaultMaxFrame)
		for {
			payload, err := dec.Next()
			if err != nil {
				break
			}
			if _, ok := wire.DecodeResponse(payload); !ok {
				t.Fatalf("undecodable response to %x: %x", tc, payload)
			}
		}
		nc.Close()
	}
}
