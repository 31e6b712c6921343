package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrConnClosed reports an operation on a closed (or failed) connection;
// the underlying cause, when known, is wrapped.
var ErrConnClosed = errors.New("wire: connection closed")

// Conn is one pipelined protocol connection: any number of requests may be
// in flight at once, each matched to its response through the in-flight
// table by request id. Start/Flush/Wait is the pipelined form; Do is the
// one-shot convenience. Start and Do are safe for concurrent use by
// multiple goroutines (responses are routed by id, not order), though the
// intended shape is one goroutine driving a window of Starts.
type Conn struct {
	nc net.Conn

	wmu  sync.Mutex // serializes encode+write (and Flush)
	bw   *bufio.Writer
	wbuf []byte // encode scratch, reused under wmu
	werr error  // first write-side failure

	tmu      sync.Mutex
	inflight map[uint64]*Pending
	nextID   uint64
	closed   error // terminal state, set once under tmu

	readerDone chan struct{}
}

// Pending is an in-flight request's handle: Wait blocks for its response.
type Pending struct {
	ch   chan Response
	conn *Conn
}

// NewConn wraps an established connection in the protocol. The caller
// hands over nc's lifecycle: Close closes it.
func NewConn(nc net.Conn) *Conn {
	c := &Conn{
		nc:         nc,
		bw:         bufio.NewWriterSize(nc, 64<<10),
		inflight:   make(map[uint64]*Pending),
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Dial connects to addr and wraps the connection.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // pipelined batches flush explicitly
	}
	return NewConn(nc), nil
}

// readLoop is the connection's demultiplexer: decode responses, deliver
// each to its Pending by id. Any decode or transport error is terminal —
// it fails every in-flight request and all future ones.
func (c *Conn) readLoop() {
	defer close(c.readerDone)
	dec := NewStreamDecoder(c.nc, DefaultMaxFrame)
	for {
		payload, err := dec.Next()
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrConnClosed, err))
			return
		}
		// One clone detaches the frame from the decoder's reused buffer;
		// the decoded response's Value/Values/Stats alias the clone, so a
		// 64-value MGET costs one allocation here, not 64.
		buf := append(make([]byte, 0, len(payload)), payload...)
		resp, ok := DecodeResponse(buf)
		if !ok {
			c.fail(fmt.Errorf("%w: undecodable response", ErrConnClosed))
			return
		}
		c.tmu.Lock()
		p := c.inflight[resp.ID]
		delete(c.inflight, resp.ID)
		c.tmu.Unlock()
		if p != nil {
			p.ch <- resp
		}
	}
}

// fail marks the connection dead and releases every waiter.
func (c *Conn) fail(err error) {
	c.tmu.Lock()
	if c.closed == nil {
		c.closed = err
	}
	pending := c.inflight
	c.inflight = make(map[uint64]*Pending)
	c.tmu.Unlock()
	c.nc.Close()
	for _, p := range pending {
		close(p.ch)
	}
}

// Close tears the connection down, failing any in-flight requests.
func (c *Conn) Close() error {
	c.fail(ErrConnClosed)
	<-c.readerDone
	return nil
}

// Err returns the connection's terminal error, nil while it is healthy.
func (c *Conn) Err() error {
	c.tmu.Lock()
	defer c.tmu.Unlock()
	return c.closed
}

// Start enqueues req on the pipeline and returns its Pending without
// waiting for the response — the pipelining primitive. The request is
// buffered; call Flush when the window is issued (or use Do). req.ID is
// assigned by the connection; the caller's value is ignored.
func (c *Conn) Start(req *Request) (*Pending, error) {
	p := &Pending{ch: make(chan Response, 1), conn: c}
	c.tmu.Lock()
	if c.closed != nil {
		err := c.closed
		c.tmu.Unlock()
		return nil, err
	}
	c.nextID++
	req.ID = c.nextID
	c.inflight[req.ID] = p
	c.tmu.Unlock()

	c.wmu.Lock()
	if c.werr == nil {
		c.wbuf = AppendRequest(c.wbuf[:0], req)
		if _, err := c.bw.Write(c.wbuf); err != nil {
			c.werr = err
		}
	}
	err := c.werr
	c.wmu.Unlock()
	if err != nil {
		c.fail(fmt.Errorf("%w: %v", ErrConnClosed, err))
		return nil, c.Err()
	}
	return p, nil
}

// Flush pushes buffered requests to the wire. A pipelined caller issues a
// window of Starts, one Flush, then Waits. A write failure fails the
// connection, and Flush, like Start, returns its terminal error.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	if c.werr == nil {
		c.werr = c.bw.Flush()
	}
	err := c.werr
	c.wmu.Unlock()
	if err != nil {
		c.fail(fmt.Errorf("%w: %v", ErrConnClosed, err))
		return c.Err()
	}
	return nil
}

// Wait blocks for the response. A closed connection yields its terminal
// error.
func (p *Pending) Wait() (Response, error) {
	resp, ok := <-p.ch
	if !ok {
		err := p.conn.Err()
		if err == nil {
			err = ErrConnClosed
		}
		return Response{}, err
	}
	return resp, nil
}

// Do is Start+Flush+Wait: the unpipelined convenience.
func (c *Conn) Do(req *Request) (Response, error) {
	p, err := c.Start(req)
	if err != nil {
		return Response{}, err
	}
	if err := c.Flush(); err != nil {
		return Response{}, err
	}
	return p.Wait()
}
