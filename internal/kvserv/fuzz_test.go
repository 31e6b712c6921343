package kvserv

// Fuzzing the HTTP connection loop: whatever a client writes — request
// lines, headers, framing, keys, query parameters, JSON bodies — the loop
// must answer in well-formed HTTP/1.1 (never a 500) and then either keep
// answering or close cleanly: no panic, no hang. FuzzHTTPConn mutates raw
// bytes; FuzzServerRequest and FuzzServerMPut mutate the fields of
// well-framed requests, which reach the handlers more often. Every target
// writes into the loop itself over a net.Pipe. CI runs the seed corpora on
// every test run and a short -fuzz exploration.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/rwl"
)

// fuzzConn is the server's end of a net.Pipe whose reads are the fuzz input
// and then EOF: the client has sent all it will, so the loop must answer
// what it can and close.
type fuzzConn struct {
	net.Conn
	in io.Reader
}

func (c fuzzConn) Read(p []byte) (int, error) { return c.in.Read(p) }

// rawRequest renders one HTTP/1.1 request with a Content-Length body.
func rawRequest(method, target string, body []byte) []byte {
	return append([]byte(fmt.Sprintf("%s %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n", method, target, len(body))), body...)
}

// readsAs parses one response off out as an answer to method, returning the
// bytes it took, or 0 when they do not parse or are not followed by the
// next response or the end.
func readsAs(t *testing.T, out []byte, method string) int {
	r := bytes.NewReader(out)
	br := bufio.NewReader(r)
	resp, err := http.ReadResponse(br, &http.Request{Method: method})
	if err != nil {
		return 0
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		return 0
	}
	if resp.StatusCode == http.StatusInternalServerError {
		t.Fatalf("500 on fuzz input: %q", out)
	}
	n := len(out) - r.Len() - br.Buffered()
	if n < len(out) && !bytes.HasPrefix(out[n:], []byte("HTTP/1.")) {
		return 0
	}
	return n
}

// requestCorpus seeds FuzzServerRequest: a key, ttl, an async parameter
// (unknown to the server, so ignored), mget key list and PUT body.
var requestCorpus = []struct {
	key, ttl, async, keys string
	body                  []byte
}{
	{"1", "1s", "1", "1,2,3", []byte("value")},
	{"notanumber", "bogus", "maybe", "1,,2", []byte("")},
	{"18446744073709551615", "-5ms", "0", ",", []byte("x")},
	{"../../etc/passwd", "1h", "true", "999999999999999999999", bytes.Repeat([]byte("A"), 64)},
	{"1%2f2", "10ns", "t", "0x10", []byte{0, 1, 2, 0xFF}},
}

// mputCorpus seeds FuzzServerMPut: MPUT bodies.
var mputCorpus = [][]byte{
	[]byte(`{"entries":[{"key":1,"value":"YQ=="}]}`),
	[]byte(`{"entries":[{"key":1,"value":"YQ=="}],"ttl":"1s"}`),
	[]byte(`{"entries":`),
	[]byte(`not json at all`),
	[]byte(`{"entries":[{"key":-1,"value":42}]}`),
	{0xFF, 0xFE, 0x00},
}

// requestSeq renders a GET, PUT, DELETE, MGET and STATS sent on one
// connection. The key rides in the path escaped, so the loop sees the raw
// string.
func requestSeq(key, ttl, async, keys string, body []byte) []byte {
	kv := "/kv/" + url.PathEscape(key)
	q := url.Values{"ttl": {ttl}, "async": {async}}.Encode()
	var in []byte
	in = append(in, rawRequest("GET", kv, nil)...)
	in = append(in, rawRequest("PUT", kv+"?"+q, body)...)
	in = append(in, rawRequest("DELETE", kv, nil)...)
	in = append(in, rawRequest("GET", "/mget?keys="+url.QueryEscape(keys), nil)...)
	return append(in, rawRequest("GET", "/stats", nil)...)
}

// mputSeq renders an MPUT of body followed by a GET, which must still be
// framed right after the body.
func mputSeq(body []byte) []byte {
	return append(rawRequest("POST", "/mput", body), rawRequest("GET", "/kv/1", nil)...)
}

func fuzzServer(f *testing.F) *Server {
	f.Helper()
	engine, err := kvs.NewSharded(4, func() rwl.RWLock { return core.New(new(stdrw.Lock)) })
	if err != nil {
		f.Fatal(err)
	}
	engine.Put(1, []byte("seeded"))
	return New(engine, Config{ReapInterval: -1})
}

// serveRaw writes in to the connection loop and checks what comes back:
// a clean close, and nothing but parseable, non-500 responses.
func serveRaw(t *testing.T, srv *Server, in []byte) {
	cli, sv := net.Pipe()
	defer cli.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serveHTTPConn(fuzzConn{sv, bytes.NewReader(in)})
		sv.Close()
	}()
	cli.SetReadDeadline(time.Now().Add(10 * time.Second))
	out, err := io.ReadAll(cli)
	if err != nil {
		t.Fatalf("no clean close after the input (%v): %q", err, in)
	}
	<-done
	for len(out) > 0 {
		n := readsAs(t, out, http.MethodGet)
		if n == 0 {
			n = readsAs(t, out, http.MethodHead)
		}
		if n == 0 {
			t.Fatalf("unparseable response %q to input %q", out, in)
		}
		out = out[n:]
	}
}

// FuzzServerRequest fuzzes the fields of well-framed requests: keys, query
// parameters and bodies.
func FuzzServerRequest(f *testing.F) {
	for _, s := range requestCorpus {
		f.Add(s.key, s.ttl, s.async, s.keys, s.body)
	}
	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, key, ttl, async, keys string, body []byte) {
		serveRaw(t, srv, requestSeq(key, ttl, async, keys, body))
	})
}

// FuzzServerMPut fuzzes the MPUT JSON body.
func FuzzServerMPut(f *testing.F) {
	for _, body := range mputCorpus {
		f.Add(body)
	}
	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		serveRaw(t, srv, mputSeq(body))
	})
}

// FuzzHTTPConn fuzzes the raw bytes: request lines, headers and framing
// as well as what they carry.
func FuzzHTTPConn(f *testing.F) {
	for _, s := range requestCorpus {
		f.Add(requestSeq(s.key, s.ttl, s.async, s.keys, s.body))
	}
	for _, body := range mputCorpus {
		f.Add(mputSeq(body))
	}
	// Framing the corpora above never reach.
	f.Add([]byte("PUT /kv/3 HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\nExpect: 100-continue\r\n\r\n2\r\nab\r\n0\r\n\r\nHEAD /kv/3 HTTP/1.0\r\n\r\n"))
	f.Add([]byte("GET /kv/1 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\nGET /kv/1 HTTP/1.1\r\n\r\n"))
	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, in []byte) {
		serveRaw(t, srv, in)
	})
}
