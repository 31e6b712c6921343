// The HTTP codec: an HTTP/1.1 connection loop shaped like the wire codec's
// serveWireConn. One goroutine per connection owns one pinned rwl.Reader
// and one scratch; it parses a request head off a bufio.Reader, maps
// (method, path) to a wire.Request, runs the executor, and renders the
// reply into a buffered writer flushed only when no further pipelined
// request is buffered. What is decided here is only what HTTP itself adds — framing,
// bodies read under a size cap, durations and booleans spelled as text, and
// which 2xx a success is. The routes with no wire counterpart
// (/checkpoint, /failover, /repl/*) are served directly.
package kvserv

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"path"
	"strconv"
	"strings"
	"time"

	"github.com/bravolock/bravo/internal/cluster"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/wire"
)

// Slow-client bounds: a connection that trickles header bytes or sits idle
// is reclaimed rather than pinning a goroutine (and its reader handle).
// The header timeout is a variable so a test can shorten it.
var httpReadHeaderTimeout = 10 * time.Second

const (
	httpIdleTimeout = 2 * time.Minute
	maxHeaderBytes  = 1<<20 + 4<<10 // net/http's default cap, with its slack
	maxDiscardBytes = 256 << 10     // unread body the loop drains to keep a connection
	// keepBytes bounds the buffers a connection holds between requests: one
	// grown past it by a large request is dropped, not kept for the
	// connection's lifetime.
	keepBytes = 64 << 10
	// lingerTimeout bounds the drain of a connection closing with request
	// bytes unread: closing over unread data resets the socket, and the
	// reset can destroy the reply before the client reads it.
	lingerTimeout = 500 * time.Millisecond
)

// httpStatus is the one wire.Status → HTTP code table. StatusOK's 200 is the
// default; renderEmpty's routes succeed with a 202 or 204 instead.
var httpStatus = [...]int{
	wire.StatusOK:          http.StatusOK,
	wire.StatusNotFound:    http.StatusNotFound,
	wire.StatusBadRequest:  http.StatusBadRequest,
	wire.StatusReadOnly:    http.StatusForbidden,
	wire.StatusConflict:    http.StatusConflict,
	wire.StatusTooLarge:    http.StatusRequestEntityTooLarge,
	wire.StatusUnsupported: http.StatusBadRequest, // no HTTP route produces it
	wire.StatusUnavailable: http.StatusServiceUnavailable,
}

// httpConn is one connection's loop state and its current request.
type httpConn struct {
	s      *Server
	nc     net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	reader *rwl.Reader // every read on this connection goes through it
	sc     scratch
	long   []byte // a head line longer than br's buffer, gathered
	val    []byte // a PUT body: the engine copies it, so it is reused

	// The request: method, path (still escaped) and query share one copy of
	// the request line; key is the unescaped last path segment.
	method, path, query, key string
	http11, keepAlive        bool
	headLeft                 int // head bytes still allowed
	// The body: framed is nil for none, else Content-Length (cl) or chunked
	// framing; lr caps what a route reads at limit+1 bytes.
	framed        io.Reader
	cl            clBody
	lr            io.LimitedReader
	limit         int64
	chunked, cont bool   // cont: a 100 Continue is owed before the body
	hdr           []byte // the reply's route-specific header lines
	// route's executor request and response, held here so that handing them
	// to the parse and render funcs moves nothing to the heap.
	req  wire.Request
	resp wire.Response
}

// refusal is a request the loop cannot frame: answered in net/http's words,
// then the connection closes.
type refusal struct {
	code int
	text string
}

func (r *refusal) Error() string { return r.text }

var errBadRequest = &refusal{code: http.StatusBadRequest}

// clBody is a Content-Length body. One cut short reads as
// io.ErrUnexpectedEOF, as net/http's body reader reports it, so a partial
// body fails its request instead of being stored.
type clBody struct {
	r *bufio.Reader
	n int64 // bytes still owed
}

func (b *clBody) Read(p []byte) (int, error) {
	if b.n <= 0 {
		return 0, io.EOF
	}
	n, err := b.r.Read(p[:min(int64(len(p)), b.n)])
	if b.n -= int64(n); err == io.EOF && b.n > 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// serveHTTPConn runs one connection until the client closes it, a timeout
// fires, a request ends it, or Close cuts it.
func (s *Server) serveHTTPConn(nc net.Conn) {
	c := &httpConn{s: s, nc: nc, br: bufio.NewReaderSize(nc, 4<<10), bw: bufio.NewWriterSize(nc, 4<<10), reader: rwl.NewReader()}
	for first := true; ; first = false {
		if !first && c.br.Buffered() == 0 {
			// Idle: the header timer starts at the next request's first byte.
			nc.SetReadDeadline(time.Now().Add(httpIdleTimeout))
			if _, err := c.br.Peek(1); err != nil {
				return
			}
		}
		nc.SetReadDeadline(time.Now().Add(httpReadHeaderTimeout))
		if err := c.readHead(); err != nil {
			if r, ok := err.(*refusal); ok {
				c.refuse(r)
				if c.bw.Flush() == nil {
					c.linger()
				}
			}
			return // EOF, a deadline, a reset: nothing to answer
		}
		nc.SetReadDeadline(time.Time{})
		c.dispatch()
		c.val, c.long, c.sc.val, c.sc.doc = shrink(c.val), shrink(c.long), shrink(c.sc.val), shrink(c.sc.doc)
		if !c.keepAlive {
			if c.bw.Flush() == nil && c.framed != nil {
				c.linger() // settle left body bytes unread
			}
			return
		}
		// Flush when no complete request head is buffered: a pipelined
		// burst is answered in one write, a lone request immediately.
		if !c.pipelined() && c.bw.Flush() != nil {
			return
		}
	}
}

func shrink(b []byte) []byte {
	if cap(b) > keepBytes {
		return nil
	}
	return b
}

// refuse answers a request the loop could not frame as net/http does — the
// status and its reason as a plain-text body, over HTTP/1.1 — and marks the
// connection closing.
func (c *httpConn) refuse(r *refusal) {
	text := strconv.Itoa(r.code) + " " + http.StatusText(r.code)
	if r.text != "" {
		text += ": " + r.text
	}
	c.method, c.http11, c.keepAlive, c.framed, c.hdr = "", true, false, nil, c.hdr[:0]
	c.reply(r.code, "text/plain; charset=utf-8", []byte(text))
}

// readLine returns the next head line without its CRLF (or bare LF),
// charged to the head's byte budget; valid until the next read.
func (c *httpConn) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		c.long = append(c.long[:0], line...)
		for err == bufio.ErrBufferFull && len(c.long) <= c.headLeft {
			line, err = c.br.ReadSlice('\n')
			c.long = append(c.long, line...)
		}
		line = c.long
	}
	if c.headLeft -= len(line); c.headLeft < 0 {
		return nil, &refusal{code: http.StatusRequestHeaderFieldsTooLarge}
	}
	if err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(line[:len(line)-1], []byte("\r")), nil
}

// readHead reads one request head: the request line into the request's
// fields and, of the headers, what the loop acts on — body framing,
// Connection, Expect, Host. A *refusal is answered; any other error ends
// the connection silently.
func (c *httpConn) readHead() error {
	c.headLeft = maxHeaderBytes
	line, err := c.readLine()
	for err == nil && len(line) == 0 { // RFC 9112 §2.2: skip stray CRLFs
		line, err = c.readLine()
	}
	if err != nil {
		return err
	}
	method, rest, ok1 := strings.Cut(string(line), " ") // the request's one copy
	target, proto, ok2 := strings.Cut(rest, " ")
	if _, rest, ok := strings.Cut(target, "://"); ok && !strings.HasPrefix(target, "/") {
		target = rest[max(strings.IndexByte(rest, '/'), 0):] // absolute form: serve its path
	}
	path, query, _ := strings.Cut(target, "?")
	_, perr := url.PathUnescape(path)
	if !ok1 || !ok2 || !isToken(method) || perr != nil || !strings.HasPrefix(path, "/") || hasCTL(target) ||
		len(proto) != 8 || !strings.HasPrefix(proto, "HTTP/") || proto[6] != '.' || !isDigit(proto[5]) || !isDigit(proto[7]) {
		return errBadRequest
	}
	if proto[5] != '1' {
		return &refusal{http.StatusHTTPVersionNotSupported, "unsupported protocol version"}
	}
	c.method, c.path, c.query, c.http11 = method, path, query, proto != "HTTP/1.0"
	c.keepAlive, c.hdr, c.framed, c.chunked, c.cont, c.limit = c.http11, c.hdr[:0], nil, false, false, 0
	length, hosts := int64(-1), 0
	for {
		if line, err = c.readLine(); err != nil || len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		value = bytes.Trim(value, " \t")
		switch {
		case !ok:
			return errBadRequest
		case !isToken(string(name)):
			return &refusal{http.StatusBadRequest, "invalid header name"}
		case hasCTL(string(value)):
			return &refusal{http.StatusBadRequest, "invalid header value"}
		case bytes.EqualFold(name, []byte("Content-Length")):
			n, err := strconv.ParseUint(string(value), 10, 63)
			if err != nil || (length >= 0 && int64(n) != length) {
				return errBadRequest
			}
			length = int64(n)
		case bytes.EqualFold(name, []byte("Transfer-Encoding")) && c.http11:
			if !bytes.EqualFold(value, []byte("chunked")) {
				return &refusal{code: http.StatusNotImplemented}
			}
			c.chunked = true
		case bytes.EqualFold(name, []byte("Connection")):
			c.keepAlive = !hasToken(value, "close") && (c.http11 || hasToken(value, "keep-alive"))
		case bytes.EqualFold(name, []byte("Expect")):
			if !bytes.EqualFold(value, []byte("100-continue")) {
				return &refusal{http.StatusExpectationFailed, "unsupported Expect"}
			}
			c.cont = c.http11
		case bytes.EqualFold(name, []byte("Host")):
			hosts++
		}
	}
	switch {
	case err != nil:
		return err
	case hosts > 1:
		return errBadRequest
	case hosts == 0 && c.http11:
		return &refusal{http.StatusBadRequest, "missing required Host header"}
	case c.chunked:
		c.framed = httputil.NewChunkedReader(c.br)
	case length > 0:
		c.cl = clBody{c.br, length}
		c.framed = &c.cl
	}
	c.cont = c.cont && c.framed != nil
	return nil
}

// pipelined reports whether a complete next request head is already
// buffered, so this reply can wait to go out with that one's.
func (c *httpConn) pipelined() bool {
	buf, _ := c.br.Peek(c.br.Buffered())
	return bytes.Contains(buf, []byte("\r\n\r\n"))
}

// linger half-closes the connection and drains what the client still
// sends, for at most lingerTimeout.
func (c *httpConn) linger() {
	if cw, ok := c.nc.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	c.nc.SetReadDeadline(time.Now().Add(lingerTimeout))
	io.Copy(io.Discard, c.nc)
}

// body returns the request body for a route to read, capped at limit:
// more reads as limit+1 bytes, which over reports. The 100 Continue a
// client may be waiting for goes out first.
func (c *httpConn) body(limit int64) io.Reader {
	if c.cont {
		c.cont = false
		c.bw.WriteString("HTTP/1.1 100 Continue\r\n\r\n")
		c.bw.Flush()
	}
	c.limit, c.lr = limit, io.LimitedReader{R: c.framed, N: limit + 1}
	if c.framed == nil {
		c.lr.R = http.NoBody
	}
	return &c.lr
}

func (c *httpConn) over() bool { return c.limit > 0 && c.lr.N == 0 }

// settle finishes the request body before the reply, deciding whether the
// connection survives it: a body over its cap, or one whose 100 Continue
// was never sent (the client may or may not still send it), ends the
// connection, and so does one with more than maxDiscardBytes left unread;
// a shorter remainder, and a chunked body's trailers, are discarded.
func (c *httpConn) settle() {
	if c.framed == nil || c.over() || c.cont {
		c.keepAlive = c.keepAlive && c.framed == nil
		return
	}
	c.lr = io.LimitedReader{R: c.framed, N: maxDiscardBytes + 1}
	n, err := io.Copy(io.Discard, &c.lr)
	for more := c.chunked; more && err == nil; {
		var line []byte
		line, err = c.readLine()
		more = len(line) > 0
	}
	if err != nil || n > maxDiscardBytes {
		c.keepAlive = false
		return
	}
	c.framed = nil
}

// reply renders one response: head, then body — left off for HEAD and 204.
func (c *httpConn) reply(code int, ctype string, body []byte) {
	if code == http.StatusNoContent {
		c.head(code, ctype, -1)
		return
	}
	c.head(code, ctype, len(body))
	if c.method != http.MethodHead {
		c.bw.Write(body)
	}
}

// head settles the body, then renders a response head: status line, the
// route's header lines, and what every reply carries; length < 0 sends no
// Content-Length.
func (c *httpConn) head(code int, ctype string, length int) {
	c.settle()
	out := append(c.bw.AvailableBuffer(), "HTTP/1.1 "...)
	if !c.http11 {
		out[len(out)-2] = '0'
	}
	out = strconv.AppendInt(out, int64(code), 10)
	out = append(append(append(out, ' '), http.StatusText(code)...), "\r\n"...)
	if ctype != "" {
		out = append(append(append(out, "Content-Type: "...), ctype...), "\r\n"...)
	}
	out = append(append(out, c.hdr...), "Date: "...)
	out = append(time.Now().UTC().AppendFormat(out, http.TimeFormat), "\r\n"...)
	if length >= 0 {
		out = append(strconv.AppendInt(append(out, "Content-Length: "...), int64(length), 10), "\r\n"...)
	}
	if !c.keepAlive && c.http11 {
		out = append(out, "Connection: close\r\n"...)
	} else if c.keepAlive && !c.http11 {
		out = append(out, "Connection: keep-alive\r\n"...)
	}
	c.bw.Write(append(out, "\r\n"...))
}

// header adds a header line to the reply being built.
func (c *httpConn) header(name string, value []byte) {
	c.hdr = append(append(append(append(c.hdr, name...), ": "...), value...), "\r\n"...)
}

// fail renders an error reply the way http.Error does: msg and a newline,
// as plain text the client must not sniff.
func (c *httpConn) fail(code int, msg string) {
	c.header("X-Content-Type-Options", []byte("nosniff"))
	c.sc.doc = append(append(c.sc.doc[:0], msg...), '\n')
	c.reply(code, "text/plain; charset=utf-8", c.sc.doc)
}

// json renders v as a 200 reply, encoding/json's Encoder output.
func (c *httpConn) json(v any) {
	buf := bytes.NewBuffer(c.sc.doc[:0])
	_ = json.NewEncoder(buf).Encode(v) // cannot fail on the types involved
	c.sc.doc = buf.Bytes()
	c.reply(http.StatusOK, "application/json", c.sc.doc)
}

// httpRoute is a path's handler and the one method it takes (GET also
// answers HEAD).
type httpRoute struct {
	method string
	serve  func(c *httpConn)
}

// httpRoutes is the route table but for /kv/{key} and /failover/{p}.
// Routes a server does not mount answer 404.
var httpRoutes = map[string]httpRoute{
	"/mget":        {"GET", func(c *httpConn) { c.route(wire.OpMGet, parseMGet, renderMGet) }},
	"/mput":        {"POST", func(c *httpConn) { c.route(wire.OpMPut, parseMPut, renderMPut) }},
	"/cas":         {"POST", func(c *httpConn) { c.route(wire.OpCas, parseCas, renderCas) }},
	"/txn":         {"POST", func(c *httpConn) { c.route(wire.OpTxn, parseTxn, renderTxn) }},
	"/flush":       {"POST", func(c *httpConn) { c.route(wire.OpFlush, nil, renderFlush) }},
	"/stats":       {"GET", func(c *httpConn) { c.route(wire.OpStats, nil, renderStats) }},
	"/checkpoint":  {"POST", (*httpConn).checkpoint},
	"/repl/status": {"GET", (*httpConn).replStatus},
	"/repl/stream": {"GET", (*httpConn).stream},
}

// dispatch routes the request: the path's handler, 405 naming the path's
// methods when the method is not among them, 404 for any other path.
func (c *httpConn) dispatch() {
	s, dir := c.s, ""
	if i := strings.LastIndexByte(c.path, '/'); i > 0 && i < len(c.path)-1 {
		dir, c.key = c.path[:i+1], c.path[i+1:]
		c.key, _ = url.PathUnescape(c.key) // readHead checked the escapes
	}
	rt, ok := httpRoutes[c.path]
	switch p := path.Clean(c.path); {
	case p != c.path && (p == "/" || c.path != p+"/"):
		// An unclean path is redirected to the clean one, as net/http's
		// router does.
		if strings.HasSuffix(c.path, "/") && p != "/" {
			p += "/"
		}
		if c.query != "" {
			p += "?" + c.query
		}
		c.header("Location", []byte(p))
		if c.method == http.MethodGet || c.method == http.MethodHead {
			c.reply(http.StatusMovedPermanently, "text/html; charset=utf-8", []byte(`<a href="`+html.EscapeString(p)+"\">Moved Permanently</a>.\n\n"))
		} else {
			c.reply(http.StatusMovedPermanently, "", nil)
		}
	case dir == "/kv/":
		switch c.method {
		case http.MethodGet, http.MethodHead:
			c.route(wire.OpGet, parseGet, renderValue)
		case http.MethodPut:
			c.route(wire.OpPut, parsePut, renderEmpty)
		case http.MethodDelete:
			c.route(wire.OpDelete, parseKey, renderEmpty)
		default:
			c.notAllowed("DELETE, GET, HEAD, PUT")
		}
	case dir == "/failover/" && s.clu != nil:
		rt, ok = httpRoute{"POST", (*httpConn).failover}, true
		fallthrough
	case ok && (c.path != "/repl/stream" || s.primary != nil) &&
		(c.path != "/repl/status" || s.primary != nil || s.follower != nil):
		if c.method == rt.method || (rt.method == "GET" && c.method == http.MethodHead) {
			rt.serve(c)
		} else if rt.method == "GET" {
			c.notAllowed("GET, HEAD")
		} else {
			c.notAllowed(rt.method)
		}
	default:
		c.fail(http.StatusNotFound, "404 page not found")
	}
}

func (c *httpConn) notAllowed(allow string) {
	c.header("Allow", []byte(allow))
	c.fail(http.StatusMethodNotAllowed, http.StatusText(http.StatusMethodNotAllowed))
}

// route runs op: parse (nil when the request carries nothing) fills the
// wire.Request — its error is a 400, or a 413 when the body outgrew its
// cap — the executor answers it, and render writes a success. Between
// them, what every reply shares: a single-key write's commit headers and
// the error rendering.
func (c *httpConn) route(
	op wire.Op,
	parse func(*httpConn, *wire.Request) error,
	render func(*httpConn, *wire.Request, *wire.Response),
) {
	if mutates(op) {
		// The executor refuses too; asking first lets a follower answer its
		// 403 without reading (or faulting on) a body.
		if err := c.s.store.Writable(); err != nil {
			c.fail(httpStatus[classify(err)], err.Error())
			return
		}
	}
	c.req = wire.Request{Op: op}
	req, resp := &c.req, &c.resp
	if parse != nil {
		if err := parse(c, req); c.over() {
			c.fail(http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", c.limit))
			return
		} else if err != nil {
			c.fail(http.StatusBadRequest, err.Error())
			return
		}
	}
	*resp = c.s.execute(c.reader, req, &c.sc)
	switch op {
	case wire.OpPut, wire.OpDelete, wire.OpCas:
		// The read-your-writes token a client hands back as ?min_lsn=. A
		// delete stamps it on a miss too (the delete is logged regardless).
		if len(resp.LSNs) > 0 {
			tok, num := resp.LSNs[0], make([]byte, 0, 20)
			c.header("X-Commit-Shard", strconv.AppendUint(num, uint64(tok.Shard), 10))
			c.header("X-Commit-Lsn", strconv.AppendUint(num, tok.LSN, 10))
			if tok.Epoch != 0 {
				c.header("X-Commit-Epoch", strconv.AppendUint(num, tok.Epoch, 10))
			}
		}
	}
	switch {
	case resp.Status == wire.StatusOK:
		render(c, req, resp)
	case resp.Msg == "":
		c.fail(httpStatus[resp.Status], "not found")
	default:
		c.fail(httpStatus[resp.Status], resp.Msg)
	}
}

// param is url.Values.Get on the query without building the map: the
// first well-formed name=value pair's unescaped value, "" when absent.
func (c *httpConn) param(name string) string {
	for q := c.query; q != ""; {
		var kv string
		kv, q, _ = strings.Cut(q, "&")
		k, v, _ := strings.Cut(kv, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != name || strings.Contains(kv, ";") {
			continue // url.ParseQuery drops the pair too
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

func parseKey(c *httpConn, req *wire.Request) (err error) {
	if req.Key, err = strconv.ParseUint(c.key, 10, 64); err != nil {
		return fmt.Errorf("bad key %q: want decimal uint64", c.key)
	}
	return nil
}

// parseToken reads a read's ?min_lsn=[&epoch=] read-your-writes token.
func parseToken(c *httpConn, req *wire.Request) (err error) {
	if raw := c.param("min_lsn"); raw != "" {
		if req.MinLSN, err = strconv.ParseUint(raw, 10, 64); err != nil {
			return fmt.Errorf("bad min_lsn %q: want a decimal LSN", raw)
		}
	}
	if raw := c.param("epoch"); raw != "" {
		if req.Epoch, err = strconv.ParseUint(raw, 10, 64); err != nil {
			return fmt.Errorf("bad epoch %q: want a decimal epoch", raw)
		}
	}
	return nil
}

// parseTTL parses and validates a TTL parameter. Only strictly positive
// durations make sense as expiries: zero and negatives would store a key
// already expired (or, in an earlier bug, a non-expiring one), and
// durations beyond ParseDuration's int64 range already fail the parse.
// Rejecting them here turns a silent data-shape surprise into a 400.
func parseTTL(raw string) (time.Duration, error) {
	ttl, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("bad ttl %q: %v", raw, err)
	}
	if ttl <= 0 {
		return 0, fmt.Errorf("bad ttl %q: must be positive", raw)
	}
	return ttl, nil
}

// readJSON decodes a JSON body under the batch cap into v. The rest of the
// body is read too, so one cut short fails even when the cut falls after a
// complete value.
func readJSON(c *httpConn, v any) error {
	body := c.body(MaxMPutBodyBytes)
	err := json.NewDecoder(body).Decode(v)
	if err == nil {
		_, err = io.Copy(io.Discard, body)
	}
	if err != nil {
		return fmt.Errorf("body: %w", err)
	}
	return nil
}

func parseGet(c *httpConn, req *wire.Request) error {
	if err := parseKey(c, req); err != nil {
		return err
	}
	return parseToken(c, req)
}

func renderValue(c *httpConn, _ *wire.Request, resp *wire.Response) {
	c.reply(http.StatusOK, "application/octet-stream", resp.Value)
}

func parsePut(c *httpConn, req *wire.Request) (err error) {
	if err = parseKey(c, req); err != nil {
		return err
	}
	buf := bytes.NewBuffer(c.val[:0])
	_, err = buf.ReadFrom(c.body(MaxValueBytes))
	if c.val, req.Value = buf.Bytes(), buf.Bytes(); err != nil {
		return fmt.Errorf("body: %w", err)
	}
	if raw := c.param("async"); raw != "" {
		if req.Async, err = strconv.ParseBool(raw); err != nil {
			return fmt.Errorf("bad async %q: want a boolean", raw)
		}
	}
	if raw := c.param("ttl"); raw != "" {
		req.TTL, err = parseTTL(raw)
	}
	return err
}

// renderEmpty answers PUT and DELETE: 202 for a write only queued, else 204.
func renderEmpty(c *httpConn, req *wire.Request, _ *wire.Response) {
	if req.Async {
		c.reply(http.StatusAccepted, "", nil)
	} else {
		c.reply(http.StatusNoContent, "", nil)
	}
}

// mgetResponse answers /mget: values is parallel to the requested keys,
// null marking absent (or expired) keys; []byte values render as base64.
type mgetResponse struct {
	Values [][]byte `json:"values"`
}

func parseMGet(c *httpConn, req *wire.Request) (err error) {
	raw := c.param("keys")
	if raw == "" {
		return errors.New("missing keys=1,2,3")
	}
	parts := strings.Split(raw, ",")
	req.Keys = make([]uint64, len(parts))
	for i, p := range parts {
		if req.Keys[i], err = strconv.ParseUint(strings.TrimSpace(p), 10, 64); err != nil {
			return fmt.Errorf("bad key %q: want decimal uint64", p)
		}
	}
	return parseToken(c, req)
}

func renderMGet(c *httpConn, _ *wire.Request, resp *wire.Response) {
	c.json(mgetResponse{Values: resp.Values})
}

// mputRequest is /mput's body: a batch applied as one MultiPut (each
// shard's group under a single write-lock acquisition), optionally with
// one TTL covering the batch.
type mputRequest struct {
	Entries []mputEntry `json:"entries"`
	TTL     string      `json:"ttl,omitempty"`
}

type mputEntry struct {
	Key   uint64 `json:"key"`
	Value []byte `json:"value"`
}

// batchTokens is a batch reply's read-your-writes tokens, in two spellings:
// epoch-0 tokens (a single engine's) as the original per-shard "lsns" map
// keyed by decimal shard index, a cluster's as "commits" triples. A volatile
// engine's reply has neither.
type batchTokens struct {
	LSNs    map[string]uint64 `json:"lsns,omitempty"`
	Commits []commit          `json:"commits,omitempty"`
}

type commit struct {
	Shard uint32 `json:"shard"`
	LSN   uint64 `json:"lsn"`
	Epoch uint64 `json:"epoch"`
}

func renderTokens(toks []wire.ShardLSN) (out batchTokens) {
	for _, t := range toks {
		if t.Epoch != 0 {
			out.Commits = append(out.Commits, commit{Shard: t.Shard, LSN: t.LSN, Epoch: t.Epoch})
			continue
		}
		if out.LSNs == nil {
			out.LSNs = map[string]uint64{}
		}
		out.LSNs[strconv.FormatUint(uint64(t.Shard), 10)] = t.LSN
	}
	return out
}

// mputResponse is /mput's reply: the applied count and the commit token of
// every shard the batch touched.
type mputResponse struct {
	Applied int `json:"applied"`
	batchTokens
}

func parseMPut(c *httpConn, req *wire.Request) (err error) {
	var body mputRequest
	if err = readJSON(c, &body); err != nil {
		return err
	}
	if body.TTL != "" {
		if req.TTL, err = parseTTL(body.TTL); err != nil {
			return err
		}
	}
	req.Keys = make([]uint64, len(body.Entries))
	req.Values = make([][]byte, len(body.Entries))
	for i, e := range body.Entries {
		req.Keys[i], req.Values[i] = e.Key, e.Value
	}
	return nil
}

func renderMPut(c *httpConn, _ *wire.Request, resp *wire.Response) {
	c.json(mputResponse{int(resp.Applied), renderTokens(resp.LSNs)})
}

// casRequest is /cas's body. Old null means "only if absent"; New null
// means "delete on match". A base64 "" is the empty value, distinct from
// null.
type casRequest struct {
	Key uint64 `json:"key"`
	Old []byte `json:"old"`
	New []byte `json:"new"`
}

// casResponse reports whether the swap applied. A false answer is a
// successful request (HTTP 200): the precondition did not hold.
type casResponse struct {
	Swapped bool `json:"swapped"`
}

func parseCas(c *httpConn, req *wire.Request) error {
	var body casRequest
	err := readJSON(c, &body)
	req.Key, req.Old, req.New = body.Key, body.Old, body.New
	return err
}

func renderCas(c *httpConn, _ *wire.Request, resp *wire.Response) {
	c.json(casResponse{Swapped: resp.Swapped})
}

// txnRequest is /txn's body: a conditional atomic batch. Every condition
// must hold (null value = key must be absent) for the ops to apply; the
// condition keys and op keys together form the transaction's declared key
// set, bounded by the engine's MaxTxnKeys (and, on a cluster, to one
// partition). Ops apply in positional order, so a repeated key's last op
// wins — the same rule as /mput.
type txnRequest struct {
	If  []txnCond `json:"if,omitempty"`
	Ops []txnOp   `json:"ops"`
}

type txnCond struct {
	Key   uint64 `json:"key"`
	Value []byte `json:"value"`
}

type txnOp struct {
	Op    string `json:"op"` // "put" or "delete"
	Key   uint64 `json:"key"`
	Value []byte `json:"value,omitempty"`
	TTL   string `json:"ttl,omitempty"`
}

// txnResponse reports the commit decision. Committed false carries the
// first condition key that failed; true carries the commit token of every
// declared key's shard — the batch's read-your-writes tokens.
type txnResponse struct {
	Committed bool    `json:"committed"`
	Mismatch  *uint64 `json:"mismatch,omitempty"`
	batchTokens
}

func parseTxn(c *httpConn, req *wire.Request) error {
	var body txnRequest
	if err := readJSON(c, &body); err != nil {
		return err
	}
	req.Conds = make([]wire.TxnCond, len(body.If))
	for i, c := range body.If {
		req.Conds[i] = wire.TxnCond{Key: c.Key, Value: c.Value}
	}
	req.TxnOps = make([]wire.TxnOp, len(body.Ops))
	for i, o := range body.Ops {
		op := wire.TxnOp{Key: o.Key, Value: o.Value}
		switch o.Op {
		case "put":
			if o.TTL != "" {
				var err error
				if op.TTL, err = parseTTL(o.TTL); err != nil {
					return fmt.Errorf("op %d: %v", i, err)
				}
			}
		case "delete":
			if o.Value != nil || o.TTL != "" {
				return fmt.Errorf("op %d: delete takes no value or ttl", i)
			}
			op.Del = true
		default:
			return fmt.Errorf("op %d: unknown op %q (want put or delete)", i, o.Op)
		}
		req.TxnOps[i] = op
	}
	return nil
}

func renderTxn(c *httpConn, _ *wire.Request, resp *wire.Response) {
	out := txnResponse{Committed: resp.Committed, batchTokens: renderTokens(resp.LSNs)}
	if !resp.Committed {
		out.Mismatch = &resp.Mismatch
	}
	c.json(out)
}

func renderFlush(c *httpConn, _ *wire.Request, resp *wire.Response) {
	c.json(map[string]int{"flushed": int(resp.Applied)})
}

// renderStats serves the executor's document with the newline it trimmed
// back on, as an Encoder writes it: the byte is still in the buffer.
func renderStats(c *httpConn, _ *wire.Request, resp *wire.Response) {
	c.reply(http.StatusOK, "application/json", append(resp.Stats, '\n'))
}

// checkpoint snapshots every shard and truncates its log. An error that
// carries no status of its own is a real checkpoint IO failure — the one
// honest 500 in this package.
func (c *httpConn) checkpoint() {
	err := c.s.store.Writable()
	if err == nil {
		err = c.s.store.Checkpoint()
	}
	var se *statusError
	switch {
	case err == nil:
		c.json(map[string]int{"checkpointed": c.s.stats().NumShards})
	case errors.As(err, &se):
		c.fail(httpStatus[se.status], err.Error())
	default:
		c.fail(http.StatusInternalServerError, fmt.Sprintf("checkpoint: %v", err))
	}
}

// failover promotes the named partition's most-caught-up follower: the
// operator's kill switch and the e2e chaos suite's lever.
func (c *httpConn) failover() {
	clu := c.s.clu
	pi, err := strconv.Atoi(c.key)
	if err != nil || pi < 0 || pi >= clu.NumPartitions() {
		c.fail(http.StatusBadRequest, fmt.Sprintf("bad partition %q: want 0..%d", c.key, clu.NumPartitions()-1))
		return
	}
	epoch, err := clu.Failover(pi)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, cluster.ErrNotReady) {
			code = http.StatusServiceUnavailable // retry once a follower bootstraps
		}
		c.fail(code, fmt.Sprintf("failover: %v", err))
		return
	}
	c.json(map[string]uint64{"partition": uint64(pi), "epoch": epoch})
}

// replStatus is a follower's own positions and lag, or a primary's
// replication posture — the other end of the same path.
func (c *httpConn) replStatus() {
	if c.s.follower != nil {
		c.json(followerView(c.s.follower))
	} else {
		c.json(c.s.primary.Status())
	}
}

// stream serves a durable primary's /repl/stream: the head, then
// repl.Primary.Stream's writes as chunks until the follower goes away or
// Close cuts the connection, which ends with the stream.
func (c *httpConn) stream() {
	q, _ := url.ParseQuery(c.query)
	shard, from, code, err := c.s.primary.ParseStream(q)
	if err != nil {
		c.fail(code, err.Error())
		return
	}
	c.keepAlive = false
	c.header("Transfer-Encoding", []byte("chunked"))
	c.header("X-Repl-Shards", strconv.AppendInt(nil, int64(c.s.primary.Status().Shards), 10))
	c.head(http.StatusOK, "application/octet-stream", -1)
	if c.bw.Flush() != nil || c.method == http.MethodHead {
		return
	}
	// Nothing more is read from a streaming connection, so a read that
	// returns is the follower leaving (or Close cutting the socket).
	ctx, cancel := context.WithCancel(context.Background())
	left := make(chan struct{})
	go func() {
		defer close(left)
		io.Copy(io.Discard, c.br)
		cancel()
	}()
	c.s.primary.Stream(ctx, shard, from, chunkWriter{c}, nil)
	c.bw.WriteString("0\r\n\r\n")
	c.bw.Flush()
	c.nc.Close() // ends the reader
	<-left
}

// chunkWriter writes each write as one HTTP chunk, at once.
type chunkWriter struct{ c *httpConn }

func (w chunkWriter) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	bw := w.c.bw
	bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(len(p)), 16))
	bw.WriteString("\r\n")
	bw.Write(p)
	bw.WriteString("\r\n")
	return len(p), bw.Flush()
}

func isDigit(b byte) bool { return '0' <= b && b <= '9' }

// isToken reports whether s is a non-empty RFC 9110 token, as a method or
// a header name must be.
func isToken(s string) bool {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b <= ' ' || b >= 0x7f || strings.IndexByte(`"(),/:;<=>?@[\]{}`, b) >= 0 {
			return false
		}
	}
	return s != ""
}

// hasCTL reports a control byte other than a tab.
func hasCTL(s string) bool {
	return strings.ContainsFunc(s, func(r rune) bool { return (r < ' ' && r != '\t') || r == 0x7f })
}

// hasToken reports whether a comma-separated header value lists token.
func hasToken(v []byte, token string) bool {
	for len(v) > 0 {
		var t []byte
		if t, v, _ = bytes.Cut(v, []byte(",")); bytes.EqualFold(bytes.Trim(t, " \t"), []byte(token)) {
			return true
		}
	}
	return false
}
