package wire

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"
)

// echoServer answers every request over nc with a canned per-op response,
// echoing the request id — enough protocol to exercise the client's
// pipelining and demux without a real engine.
func echoServer(t *testing.T, nc net.Conn) {
	t.Helper()
	dec := NewStreamDecoder(nc, 0)
	var out []byte
	for {
		payload, err := dec.Next()
		if err != nil {
			nc.Close()
			return
		}
		req, ok := DecodeRequest(payload)
		if !ok {
			nc.Close()
			return
		}
		resp := Response{Op: req.Op, ID: req.ID}
		switch req.Op {
		case OpGet:
			if req.Key == 404 {
				resp.Status = StatusNotFound
			} else {
				resp.Value = []byte("value")
			}
		case OpPut:
			resp.LSNs = []ShardLSN{{Shard: uint32(req.Key % 4), LSN: req.Key}}
		}
		out = AppendResponse(out[:0], &resp)
		if _, err := nc.Write(out); err != nil {
			nc.Close()
			return
		}
	}
}

func pipeConn(t *testing.T) *Conn {
	t.Helper()
	cNC, sNC := net.Pipe()
	go echoServer(t, sNC)
	c := NewConn(cNC)
	t.Cleanup(func() { c.Close() })
	return c
}

func TestConnDo(t *testing.T) {
	c := pipeConn(t)
	resp, err := c.Do(&Request{Op: OpGet, Key: 1})
	if err != nil || string(resp.Value) != "value" {
		t.Fatalf("GET: %v, %q", err, resp.Value)
	}
	resp, err = c.Do(&Request{Op: OpGet, Key: 404})
	if err != nil || resp.Status != StatusNotFound {
		t.Fatalf("GET miss: %v, status %v", err, resp.Status)
	}
}

// TestConnPipelined issues a window of requests before reading any
// response and checks each Pending resolves to its own reply.
func TestConnPipelined(t *testing.T) {
	c := pipeConn(t)
	const depth = 32
	pendings := make([]*Pending, depth)
	for i := range pendings {
		p, err := c.Start(&Request{Op: OpPut, Key: uint64(i)})
		if err != nil {
			t.Fatalf("Start %d: %v", i, err)
		}
		pendings[i] = p
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for i, p := range pendings {
		resp, err := p.Wait()
		if err != nil {
			t.Fatalf("Wait %d: %v", i, err)
		}
		// The echo server stamps LSN=key: correlation is observable.
		if len(resp.LSNs) != 1 || resp.LSNs[0].LSN != uint64(i) {
			t.Fatalf("response %d carried LSNs %v", i, resp.LSNs)
		}
	}
}

// TestConnConcurrentCallers hammers one connection from many goroutines:
// the demux must route every response to its caller.
func TestConnConcurrentCallers(t *testing.T) {
	c := pipeConn(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := uint64(g*1000 + i)
				resp, err := c.Do(&Request{Op: OpPut, Key: key})
				if err != nil {
					t.Errorf("PUT %d: %v", key, err)
					return
				}
				if len(resp.LSNs) != 1 || resp.LSNs[0].LSN != key {
					t.Errorf("PUT %d answered with %v", key, resp.LSNs)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConnCloseFailsInflight: closing the connection releases every
// waiter with ErrConnClosed rather than hanging.
func TestConnCloseFailsInflight(t *testing.T) {
	cNC, _ := net.Pipe() // server never reads: requests stay in flight
	c := NewConn(cNC)
	p, err := c.Start(&Request{Op: OpGet, Key: 1})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.Wait()
		done <- err
	}()
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Wait returned nil after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait hung after Close")
	}
	if _, err := c.Start(&Request{Op: OpGet, Key: 2}); err == nil {
		t.Fatal("Start succeeded on a closed connection")
	}
}

// TestStreamHasFrame: after one Next over a two-frame stream the second
// frame is already buffered (HasFrame true, no reader touch); draining it
// empties the buffer (HasFrame false).
func TestStreamHasFrame(t *testing.T) {
	var stream []byte
	stream = AppendRequest(stream, &Request{Op: OpGet, ID: 1, Key: 1})
	stream = AppendRequest(stream, &Request{Op: OpGet, ID: 2, Key: 2})
	dec := NewStreamDecoder(bytes.NewReader(stream), 0)
	if dec.HasFrame() {
		t.Fatal("HasFrame before any read")
	}
	if _, err := dec.Next(); err != nil {
		t.Fatal(err)
	}
	if !dec.HasFrame() {
		t.Fatal("second frame not buffered after first Next")
	}
	if _, err := dec.Next(); err != nil {
		t.Fatal(err)
	}
	if dec.HasFrame() {
		t.Fatal("HasFrame after the stream drained")
	}
}
