package wire

// Error-path coverage for the pipelined client: a server dying mid-window
// must fail exactly the unanswered tail, every Pending must drain (never
// hang) on a broken connection, a failed Conn must refuse new work with
// its terminal error, and a failed Flush must fail what it left unsent.

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// partialServer reads exactly total requests off nc, answers the first
// answer of them (echo-style PUT responses), then closes the connection —
// a server crashing mid-pipeline with a window still in flight.
func partialServer(t *testing.T, nc net.Conn, total, answer int) {
	t.Helper()
	dec := NewStreamDecoder(nc, 0)
	var out []byte
	answered := 0
	for i := 0; i < total; i++ {
		payload, err := dec.Next()
		if err != nil {
			t.Errorf("partialServer: decode request %d: %v", i, err)
			nc.Close()
			return
		}
		req, ok := DecodeRequest(payload)
		if !ok {
			t.Errorf("partialServer: undecodable request %d", i)
			nc.Close()
			return
		}
		if answered >= answer {
			continue // read it, never answer it
		}
		answered++
		resp := Response{Op: req.Op, ID: req.ID, LSNs: []ShardLSN{{Shard: uint32(req.Key % 4), LSN: req.Key}}}
		out = AppendResponse(out[:0], &resp)
		if _, err := nc.Write(out); err != nil {
			t.Errorf("partialServer: write response %d: %v", i, err)
			nc.Close()
			return
		}
	}
	nc.Close()
}

// TestConnServerCloseMidPipeline: the server answers the head of the
// window and dies. The answered Pendings resolve normally; every
// unanswered one fails with ErrConnClosed instead of hanging.
func TestConnServerCloseMidPipeline(t *testing.T) {
	const depth, answered = 16, 5
	cNC, sNC := net.Pipe()
	go partialServer(t, sNC, depth, answered)
	c := NewConn(cNC)
	defer c.Close()

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
	for i, p := range pendings[:answered] {
		resp, err := p.Wait()
		if err != nil {
			t.Fatalf("Wait %d (answered half): %v", i, err)
		}
		if len(resp.LSNs) != 1 || resp.LSNs[0].LSN != uint64(i) {
			t.Fatalf("Wait %d: response carried LSNs %v", i, resp.LSNs)
		}
	}
	for i, p := range pendings[answered:] {
		if _, err := p.Wait(); !errors.Is(err, ErrConnClosed) {
			t.Fatalf("Wait %d (orphaned half): err = %v, want ErrConnClosed", answered+i, err)
		}
	}
	if c.Err() == nil {
		t.Fatal("Err() = nil after server close, want terminal error")
	}
}

// TestConnPendingDrainOnBrokenConn: the server vanishes without answering
// anything. Draining every Pending — including from a separate goroutine
// already blocked in Wait — returns promptly with ErrConnClosed, and a
// second Wait on the same handle repeats the error rather than hanging.
func TestConnPendingDrainOnBrokenConn(t *testing.T) {
	cNC, sNC := net.Pipe()
	c := NewConn(cNC)
	defer c.Close()

	// One waiter parked before the break.
	early, err := c.Start(&Request{Op: OpGet, Key: 1})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	parked := make(chan error, 1)
	go func() {
		_, err := early.Wait()
		parked <- err
	}()

	var rest []*Pending
	for i := 0; i < 8; i++ {
		p, err := c.Start(&Request{Op: OpGet, Key: uint64(i)})
		if err != nil {
			t.Fatalf("Start %d: %v", i, err)
		}
		rest = append(rest, p)
	}
	sNC.Close() // the break: nothing was ever answered

	select {
	case err := <-parked:
		if !errors.Is(err, ErrConnClosed) {
			t.Fatalf("parked Wait: err = %v, want ErrConnClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked Wait hung after the connection broke")
	}
	for i, p := range rest {
		if _, err := p.Wait(); !errors.Is(err, ErrConnClosed) {
			t.Fatalf("drain Wait %d: err = %v, want ErrConnClosed", i, err)
		}
	}
	// Wait is sticky: asking the same handle again repeats the error.
	if _, err := rest[0].Wait(); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("repeated Wait: err = %v, want ErrConnClosed", err)
	}
}

// TestConnFailedConnRefusesNewWork: once the terminal error is set, Start,
// Flush, and Do all report it immediately instead of queueing doomed work.
func TestConnFailedConnRefusesNewWork(t *testing.T) {
	cNC, sNC := net.Pipe()
	c := NewConn(cNC)
	defer c.Close()
	sNC.Close()

	// The read loop notices the break asynchronously; Err flips non-nil.
	deadline := time.Now().Add(5 * time.Second)
	for c.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("Err() stayed nil after peer close")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Start(&Request{Op: OpGet, Key: 1}); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Start on failed conn: err = %v, want ErrConnClosed", err)
	}
	if _, err := c.Do(&Request{Op: OpGet, Key: 1}); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Do on failed conn: err = %v, want ErrConnClosed", err)
	}
}

// failWrites is a connection whose reads block until Close and whose writes
// fail with errWrite: a transport that breaks under the writer while the
// read loop has noticed nothing.
type failWrites struct{ net.Conn }

var errWrite = errors.New("write failed")

func (failWrites) Write([]byte) (int, error) { return 0, errWrite }

// TestConnWriteFailureIsConnClosed: a write that fails in Flush (Do's small
// request) or in Start (a request larger than the write buffer) reports the
// connection's terminal error — ErrConnClosed, naming the cause — not the
// raw transport error, and leaves the connection failed.
func TestConnWriteFailureIsConnClosed(t *testing.T) {
	for name, req := range map[string]*Request{
		"Do":    {Op: OpGet, Key: 1},
		"Start": {Op: OpPut, Key: 1, Value: make([]byte, 128<<10)},
	} {
		cNC, sNC := net.Pipe()
		c := NewConn(failWrites{cNC})
		_, err := c.Do(req)
		if !errors.Is(err, ErrConnClosed) || !strings.Contains(err.Error(), errWrite.Error()) {
			t.Errorf("%s over a failing transport: err = %v, want ErrConnClosed naming %q", name, err, errWrite)
		}
		if c.Err() == nil {
			t.Errorf("%s: Err() = nil after a write failure", name)
		}
		if err := c.Flush(); !errors.Is(err, ErrConnClosed) {
			t.Errorf("%s: Flush after the failure: err = %v, want ErrConnClosed", name, err)
		}
		c.Close()
		sNC.Close()
	}
}

// TestConnFailedFlushFailsBufferedRequests: a Flush that cannot write
// fails the connection, and a request still parked in the write buffer —
// never sent, so never answered — has its Wait return ErrConnClosed
// instead of hanging. failWrites keeps the read loop blind to the break,
// so only the failed Flush can release the waiter.
func TestConnFailedFlushFailsBufferedRequests(t *testing.T) {
	cNC, sNC := net.Pipe()
	defer sNC.Close()
	c := NewConn(failWrites{cNC})
	defer c.Close()
	p, err := c.Start(&Request{Op: OpGet, Key: 7}) // parked in the write buffer
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := c.Flush(); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Flush over a failing transport: err = %v, want ErrConnClosed", err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := p.Wait()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrConnClosed) {
			t.Fatalf("Wait after a failed Flush: err = %v, want ErrConnClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait hung on a request the failed Flush never sent")
	}
}
