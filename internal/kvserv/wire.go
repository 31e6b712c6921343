// The wire codec: internal/wire's pipelined binary protocol in front of the
// executor. Frames decode into the wire.Request the executor takes and its
// wire.Response encodes straight back, so this file is only connection
// handling. The protocol's point is lock amortization end to end — a client
// batches N keys into one MPUT/MGET frame, the store's MultiPut/MultiGet
// takes it whole, and the engine's shard-grouping pass makes the network
// batch cost one write-lock acquisition (one bias revocation, one WAL group
// commit) per shard it touches.
//
// Each connection is served by one goroutine holding one pinned
// rwl.Reader, the same contract the HTTP front-end gets from HTTP/1.x
// sequential request serving: requests on a connection are processed in
// arrival order (pipelining overlaps network and processing, not engine
// calls on one connection), and every read costs one cached-slot CAS.
// Responses are batched: the server writes into a buffered writer and
// flushes only when the decoder has no complete request frame left — a
// pipelined burst of N requests is answered with one (or few) TCP writes.
package kvserv

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"

	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/wire"
)

// ErrServerClosed is ServeWire's return after Close, mirroring
// http.ErrServerClosed.
var ErrServerClosed = errors.New("kvserv: server closed")

// ServeWire accepts wire-protocol connections on l until Close. It may
// run alongside Serve (the HTTP front-end) on a different listener; both
// serve the same store through the same executor. Like Serve, it always
// returns a non-nil error; after Close that error is ErrServerClosed.
func (s *Server) ServeWire(l net.Listener) error {
	s.wireMu.Lock()
	select {
	case <-s.done:
		s.wireMu.Unlock()
		l.Close()
		return ErrServerClosed
	default:
	}
	s.wireLns[l] = true
	s.wireMu.Unlock()

	for {
		nc, err := l.Accept()
		if err != nil {
			select {
			case <-s.done:
				return ErrServerClosed
			default:
				return err
			}
		}
		s.wireMu.Lock()
		select {
		case <-s.done:
			s.wireMu.Unlock()
			nc.Close()
			return ErrServerClosed
		default:
		}
		s.wireConns[nc] = true
		s.wg.Add(1)
		s.wireMu.Unlock()
		go s.serveWireConn(nc)
	}
}

// serveWireConn runs one connection: decode request frames, execute each,
// batch responses until the request backlog drains.
// A protocol error (corrupt frame, undecodable header) closes the
// connection — frame boundaries are gone, nothing more can be answered.
func (s *Server) serveWireConn(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		nc.Close()
		s.wireMu.Lock()
		delete(s.wireConns, nc)
		s.wireMu.Unlock()
	}()

	// The connection's pinned reader handle: every GET/MGET on this
	// connection reads through it, one cached-slot CAS per acquisition.
	reader := rwl.NewReader()
	dec := wire.NewStreamDecoder(nc, wire.DefaultMaxFrame)
	bw := bufio.NewWriterSize(nc, 64<<10)
	sc := new(scratch)
	var out []byte // response encode scratch, reused across requests

	for {
		payload, err := dec.Next()
		if err != nil {
			// Cut stream: EOF, deadline (Close's drain), or corruption.
			// Whatever was answered is already flushed or about to be.
			bw.Flush()
			return
		}
		req, ok := wire.DecodeRequest(payload)
		var resp wire.Response
		if ok {
			resp = s.execute(reader, &req, sc)
		} else if op, id, headerOK := wireHeader(payload); headerOK {
			// The frame's envelope was sound and its header parsed — the
			// client can be told which request was malformed, and the
			// connection survives (frame boundaries are intact).
			resp = wire.Response{Op: op, ID: id, Status: wire.StatusBadRequest, Msg: "malformed request body"}
		} else {
			// Not even a header: answer nothing (no id to echo) and close.
			bw.Flush()
			return
		}
		out = wire.AppendResponse(out[:0], &resp)
		if _, err := bw.Write(out); err != nil {
			return
		}
		// Flush when no complete request frame is buffered: a pipelined
		// burst is answered in one write, a lone request immediately.
		if !dec.HasFrame() {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// wireHeader leniently parses just a request's version/op/id prefix so a
// malformed-body frame can still be answered by id.
func wireHeader(p []byte) (wire.Op, uint64, bool) {
	if len(p) < 11 || p[0] != wire.Version {
		return 0, 0, false
	}
	return wire.Op(p[1]), binary.LittleEndian.Uint64(p[3:]), true
}
