package kvserv

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// countingListener counts the connections it accepts and, for the latest
// one, the writes the server makes to it.
type countingListener struct {
	net.Listener
	accepts atomic.Int32
	writes  atomic.Pointer[atomic.Int32]
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepts.Add(1)
	w := new(atomic.Int32)
	l.writes.Store(w)
	return &countingConn{nc, w}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int32
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// CloseWrite keeps the server's linger path the one a TCP socket takes.
func (c *countingConn) CloseWrite() error { return c.Conn.(*net.TCPConn).CloseWrite() }

// exchange writes in on a fresh connection, reads one response per method
// (bodies read whole), and reports whether the server then closed the
// connection.
func exchange(t *testing.T, addr, in string, methods ...string) (resps []*http.Response, bodies []string, closed bool) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := io.WriteString(nc, in); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(nc)
	for _, m := range methods {
		resp, err := http.ReadResponse(br, &http.Request{Method: m})
		if err != nil {
			t.Fatalf("response %d to %q: %v", len(resps), in, err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("response %d body: %v", len(resps), err)
		}
		resps, bodies = append(resps, resp), append(bodies, string(body))
	}
	nc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	_, err = br.ReadByte()
	return resps, bodies, err == io.EOF
}

// TestHTTPConformance drives the connection loop over a real listener, with
// net/http clients and with raw bytes, through what HTTP/1.1 clients do
// besides a plain request: keep-alive, pipelining, 100-continue, chunked
// bodies, closing, HEAD, and the requests it must refuse.
func TestHTTPConformance(t *testing.T) {
	t.Parallel()
	engine := benchEngine(t)
	engine.Put(1, []byte("v"))
	engine.Delete(2)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: l}
	srv := New(engine, Config{ReapInterval: -1})
	go srv.Serve(cl)
	t.Cleanup(func() { srv.Close() })
	addr := l.Addr().String()
	base := "http://" + addr
	get1 := "GET /kv/1 HTTP/1.1\r\nHost: x\r\n\r\n"

	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"keep-alive reuses one connection", func(t *testing.T) {
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			c := &http.Client{Transport: tr}
			before := cl.accepts.Load()
			for i := 0; i < 5; i++ {
				resp, err := c.Get(base + "/kv/1")
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 || string(body) != "v" {
					t.Fatalf("GET #%d = %d %q", i, resp.StatusCode, body)
				}
			}
			if n := cl.accepts.Load() - before; n != 1 {
				t.Fatalf("5 keep-alive GETs took %d connections, want 1", n)
			}
		}},
		{"pipelined requests answered in order with one write", func(t *testing.T) {
			resps, bodies, closed := exchange(t, addr, get1+"GET /kv/2 HTTP/1.1\r\nHost: x\r\n\r\n", "GET", "GET")
			if resps[0].StatusCode != 200 || bodies[0] != "v" || resps[1].StatusCode != 404 || closed {
				t.Fatalf("pipelined = %d %q, %d %q, closed %v", resps[0].StatusCode, bodies[0], resps[1].StatusCode, bodies[1], closed)
			}
			if n := cl.writes.Load().Load(); n != 1 {
				t.Fatalf("two pipelined responses took %d writes, want 1", n)
			}
		}},
		{"Expect: 100-continue", func(t *testing.T) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			io.WriteString(nc, "PUT /kv/10 HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\n")
			br := bufio.NewReader(nc)
			resp, err := http.ReadResponse(br, nil)
			if err != nil || resp.StatusCode != http.StatusContinue {
				t.Fatalf("before the body: %v %v, want 100 Continue", resp, err)
			}
			io.WriteString(nc, "later")
			if resp, err = http.ReadResponse(br, nil); err != nil || resp.StatusCode != http.StatusNoContent {
				t.Fatalf("after the body: %v %v, want 204", resp, err)
			}
			if v, _ := engine.Get(10); string(v) != "later" {
				t.Fatalf("stored %q", v)
			}
		}},
		{"chunked PUT body", func(t *testing.T) {
			// An io.Reader of unknown length: net/http sends it chunked.
			req, _ := http.NewRequest(http.MethodPut, base+"/kv/11", io.MultiReader(strings.NewReader("chu"), strings.NewReader("nked")))
			resp, err := http.DefaultClient.Do(req)
			if err != nil || resp.StatusCode != http.StatusNoContent {
				t.Fatalf("chunked PUT = %v %v", resp, err)
			}
			resp.Body.Close()
			if v, _ := engine.Get(11); string(v) != "chunked" {
				t.Fatalf("stored %q", v)
			}
			// Raw, with a trailer section the loop must skip.
			resps, _, closed := exchange(t, addr, "PUT /kv/12 HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"+
				"3\r\nabc\r\n2\r\nde\r\n0\r\nX-Trailer: 1\r\n\r\n"+get1, "PUT", "GET")
			if resps[0].StatusCode != http.StatusNoContent || resps[1].StatusCode != 200 || closed {
				t.Fatalf("raw chunked PUT = %d, then %d, closed %v", resps[0].StatusCode, resps[1].StatusCode, closed)
			}
			if v, _ := engine.Get(12); string(v) != "abcde" {
				t.Fatalf("stored %q", v)
			}
		}},
		{"Connection: close and HTTP/1.0 close after the response", func(t *testing.T) {
			resps, bodies, closed := exchange(t, addr, "GET /kv/1 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n", "GET")
			if resps[0].StatusCode != 200 || bodies[0] != "v" || !resps[0].Close || !closed {
				t.Fatalf("Connection: close = %d %q, close header %v, closed %v", resps[0].StatusCode, bodies[0], resps[0].Close, closed)
			}
			resps, bodies, closed = exchange(t, addr, "GET /kv/1 HTTP/1.0\r\n\r\n", "GET")
			if resps[0].StatusCode != 200 || bodies[0] != "v" || resps[0].ProtoMinor != 0 || !closed {
				t.Fatalf("HTTP/1.0 = %s %d %q, closed %v", resps[0].Proto, resps[0].StatusCode, bodies[0], closed)
			}
			resps, _, closed = exchange(t, addr, "GET /kv/1 HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", "GET")
			if resps[0].Header.Get("Connection") != "keep-alive" || closed {
				t.Fatalf("HTTP/1.0 keep-alive: Connection %q, closed %v", resps[0].Header.Get("Connection"), closed)
			}
		}},
		{"431 on an oversize header", func(t *testing.T) {
			huge := "GET /kv/1 HTTP/1.1\r\nHost: x\r\nX-Big: " + strings.Repeat("a", maxHeaderBytes) + "\r\n\r\n"
			resps, _, closed := exchange(t, addr, huge, "GET")
			if resps[0].StatusCode != http.StatusRequestHeaderFieldsTooLarge || !closed {
				t.Fatalf("oversize header = %d, closed %v", resps[0].StatusCode, closed)
			}
		}},
		{"413 and close on an oversize body", func(t *testing.T) {
			in := "PUT /kv/13 HTTP/1.1\r\nHost: x\r\nContent-Length: " + strconv.Itoa(MaxValueBytes+1) + "\r\n\r\n" +
				strings.Repeat("b", MaxValueBytes+1) + get1
			resps, bodies, closed := exchange(t, addr, in, "PUT")
			want := "body exceeds " + strconv.Itoa(MaxValueBytes) + " bytes\n"
			if resps[0].StatusCode != http.StatusRequestEntityTooLarge || bodies[0] != want || !closed {
				t.Fatalf("oversize body = %d %q, closed %v", resps[0].StatusCode, bodies[0], closed)
			}
			// A declared length over the cap is refused unread: no 100 Continue.
			in = "POST /mput HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: " + strconv.Itoa(MaxMPutBodyBytes+1) + "\r\n\r\n"
			resps, bodies, closed = exchange(t, addr, in, "POST")
			if want = "body exceeds " + strconv.Itoa(MaxMPutBodyBytes) + " bytes\n"; resps[0].StatusCode != http.StatusRequestEntityTooLarge || bodies[0] != want || !closed {
				t.Fatalf("declared oversize body = %d %q, closed %v", resps[0].StatusCode, bodies[0], closed)
			}
		}},
		{"a body cut short is refused, not stored", func(t *testing.T) {
			for _, in := range []string{
				"PUT /kv/5000 HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\nhalf!",
				// The cut falls after a complete JSON value.
				"POST /mput HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n" + `{"entries":[{"key":5000,"value":"dg=="}]}`,
			} {
				nc, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				io.WriteString(nc, in)
				nc.(*net.TCPConn).CloseWrite()
				nc.SetReadDeadline(time.Now().Add(5 * time.Second))
				resp, err := http.ReadResponse(bufio.NewReader(nc), nil)
				nc.Close()
				if err != nil || resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("%q = %v %v, want 400", in, resp, err)
				}
				if v, ok := engine.Get(5000); ok {
					t.Fatalf("%q stored %q", in, v)
				}
			}
		}},
		{"400 and close on a malformed request line", func(t *testing.T) {
			for _, line := range []string{"GARBAGE", "GET /kv/1", "GET /kv/1 HTTP/1.1 extra", "GET kv/1 HTTP/1.1", "GET /kv/%zz HTTP/1.1"} {
				resps, _, closed := exchange(t, addr, line+"\r\nHost: x\r\n\r\n"+get1, "GET")
				if resps[0].StatusCode != http.StatusBadRequest || !closed {
					t.Fatalf("%q = %d, closed %v", line, resps[0].StatusCode, closed)
				}
			}
		}},
		{"HEAD, 405 with Allow, 404", func(t *testing.T) {
			resps, bodies, closed := exchange(t, addr, "HEAD /kv/1 HTTP/1.1\r\nHost: x\r\n\r\n"+
				"POST /kv/1 HTTP/1.1\r\nHost: x\r\n\r\n"+
				"GET /mput HTTP/1.1\r\nHost: x\r\n\r\n"+
				"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n", "HEAD", "POST", "GET", "GET")
			if r := resps[0]; r.StatusCode != 200 || r.ContentLength != 1 || r.Header.Get("Content-Type") != "application/octet-stream" || bodies[0] != "" {
				t.Fatalf("HEAD = %d, length %d, type %q, body %q", r.StatusCode, r.ContentLength, r.Header.Get("Content-Type"), bodies[0])
			}
			if r := resps[1]; r.StatusCode != 405 || r.Header.Get("Allow") != "DELETE, GET, HEAD, PUT" || bodies[1] != "Method Not Allowed\n" {
				t.Fatalf("POST /kv/1 = %d, Allow %q, body %q", r.StatusCode, r.Header.Get("Allow"), bodies[1])
			}
			if r := resps[2]; r.StatusCode != 405 || r.Header.Get("Allow") != "POST" {
				t.Fatalf("GET /mput = %d, Allow %q", r.StatusCode, r.Header.Get("Allow"))
			}
			if r := resps[3]; r.StatusCode != 404 || bodies[3] != "404 page not found\n" ||
				r.Header.Get("Content-Type") != "text/plain; charset=utf-8" || r.Header.Get("X-Content-Type-Options") != "nosniff" {
				t.Fatalf("GET /nope = %d %q, headers %v", r.StatusCode, bodies[3], r.Header)
			}
			if closed {
				t.Fatal("connection closed after answerable requests")
			}
		}},
		{"percent-encoded path and query", func(t *testing.T) {
			resps, bodies, _ := exchange(t, addr, "GET /mget?keys=1%2C2 HTTP/1.1\r\nHost: x\r\n\r\nGET /kv/%31 HTTP/1.1\r\nHost: x\r\n\r\n", "GET", "GET")
			var got mgetResponse
			if err := json.Unmarshal([]byte(bodies[0]), &got); err != nil || len(got.Values) != 2 || string(got.Values[0]) != "v" || got.Values[1] != nil {
				t.Fatalf("mget = %d %q (%v)", resps[0].StatusCode, bodies[0], err)
			}
			if resps[1].StatusCode != 200 || bodies[1] != "v" {
				t.Fatalf("GET /kv/%%31 = %d %q", resps[1].StatusCode, bodies[1])
			}
		}},
		{"a header trickled past the read-header deadline closes the connection", func(t *testing.T) {
			slow := New(engine, Config{ReapInterval: -1})
			slow.headerTimeout = 100 * time.Millisecond
			base, _ := serveBoth(t, slow)
			nc, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			io.WriteString(nc, "GET /kv/1 HTTP/1.1\r\n")
			for _, b := range []byte("Host: x\r\n\r\n") { // one byte per 30 ms
				time.Sleep(30 * time.Millisecond)
				if _, err := nc.Write([]byte{b}); err != nil {
					break
				}
			}
			// Closed with no reply: EOF, or a reset if the close raced the
			// trickle — anything but a reply or a client-side timeout.
			nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := nc.Read(make([]byte, 1)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("read after the deadline = %d, %v; want the connection closed", n, err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}

// rawClient is a keep-alive connection that sends one fixed request and
// reads its response into a reused buffer: a client that allocates nothing,
// so AllocsPerRun and -benchmem count the server alone.
type rawClient struct {
	nc   net.Conn
	req  []byte
	buf  []byte
	body []byte // the last response's body
}

func dialRaw(tb testing.TB, srv *Server, req string) *rawClient {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(l)
	tb.Cleanup(func() { srv.Close() })
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { nc.Close() })
	return &rawClient{nc: nc, req: []byte(req), buf: make([]byte, 64<<10)}
}

// roundTrip sends the request and reads one Content-Length response.
func (c *rawClient) roundTrip(tb testing.TB) {
	if _, err := c.nc.Write(c.req); err != nil {
		tb.Fatal(err)
	}
	n, start, end := 0, 0, -1
	for end < 0 || n < end {
		m, err := c.nc.Read(c.buf[n:])
		if err != nil {
			tb.Fatal(err)
		}
		n += m
		if i := bytes.Index(c.buf[:n], []byte("\r\n\r\n")); end < 0 && i >= 0 {
			head := c.buf[:i]
			j := bytes.Index(head, []byte("Content-Length: ")) + len("Content-Length: ")
			length := 0
			for ; j < len(head) && head[j] != '\r'; j++ {
				length = length*10 + int(head[j]-'0')
			}
			start, end = i+4, i+4+length
			if !bytes.HasPrefix(head, []byte("HTTP/1.1 200 ")) || end > len(c.buf) {
				tb.Fatalf("response %q", head)
			}
		}
	}
	c.body = c.buf[start:end]
}

// TestHTTPGetAllocs pins the serving cost of a keep-alive point GET: the
// request line's one string copy, and nothing per header, route or reply.
func TestHTTPGetAllocs(t *testing.T) {
	c := dialRaw(t, New(benchEngine(t), Config{ReapInterval: -1}), "GET /kv/42 HTTP/1.1\r\nHost: x\r\n\r\n")
	c.roundTrip(t) // size the buffers
	if n := testing.AllocsPerRun(1000, func() { c.roundTrip(t) }); n > 2 {
		t.Fatalf("HTTP GET allocates %.1f times per request on the server, want <= 2", n)
	}
}

// flakyListener fails its first Accept as a process out of file
// descriptors does.
type flakyListener struct {
	net.Listener
	failed atomic.Bool
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failed.CompareAndSwap(false, true) {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", syscall.EMFILE)}
	}
	return l.Listener.Accept()
}

// TestServeRetriesTemporaryAcceptErrors: running out of file descriptors
// slows Serve down; it does not stop it.
func TestServeRetriesTemporaryAcceptErrors(t *testing.T) {
	t.Parallel()
	engine := benchEngine(t)
	engine.Put(1, []byte("v"))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(engine, Config{ReapInterval: -1})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(&flakyListener{Listener: l}) }()
	resps, bodies, _ := exchange(t, l.Addr().String(), "GET /kv/1 HTTP/1.1\r\nHost: x\r\n\r\n", "GET")
	if resps[0].StatusCode != 200 || bodies[0] != "v" {
		t.Fatalf("GET after a failed Accept = %d %q", resps[0].StatusCode, bodies[0])
	}
	srv.Close()
	if err := <-done; err != http.ErrServerClosed {
		t.Fatalf("Serve = %v, want http.ErrServerClosed", err)
	}
}
