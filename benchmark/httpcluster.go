package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"github.com/bravolock/bravo"
	"github.com/bravolock/bravo/internal/cluster"
	"github.com/bravolock/bravo/internal/kvserv"
)

// http-cluster: the only workload where the HTTP codec, the cluster router
// and follower apply run. cluster.Open (2 partitions × 8 shards, 1
// follower each, SyncNone) behind kvserv.NewClusterServer, W keep-alive
// HTTP/1.1 connections, 80 % GET /kv / 15 % PUT /kv / 5 % GET /mget (8
// keys). Afterwards: wait for follower catch-up, time one graceful
// Failover(0) to the first acknowledged write, verify every key on the
// promoted primary.
type httpCluster struct {
	clu  *cluster.Cluster
	srv  *kvserv.Server
	dir  string
	base string
	cl   []*httpClient
}

const (
	clusterPartitions = 2
	clusterShards     = 8
	clusterFollowers  = 1
	httpMGetKeys      = 8
)

// httpClient is one worker's keep-alive connection.
type httpClient struct {
	c   *http.Client
	tr  *http.Transport
	url []byte
}

func (x *httpCluster) plan() plan {
	return plan{keys: 1 << 14, tapeLen: 1 << 14, passes: 1, sampleEvery: 1, mix: []mixEntry{
		{opGet, 80, 1}, {opPut, 15, 1}, {opMGet, 5, httpMGetKeys}}}
}

func (x *httpCluster) setup(rs *runState) (err error) {
	if x.dir, err = rs.newDataDir(); err != nil {
		return err
	}
	x.clu, err = cluster.Open(cluster.Config{
		Partitions: clusterPartitions, Shards: clusterShards, Followers: clusterFollowers,
		Dir: x.dir, Policy: bravo.SyncNone, MkLock: mkLock(nil),
	})
	if err != nil {
		return err
	}
	var putErr error
	preload(rs, func(key uint64, v []byte) {
		if _, err := x.clu.Put(key, v, 0); err != nil && putErr == nil {
			putErr = err
		}
	})
	if putErr != nil {
		return fmt.Errorf("preload: %w", putErr)
	}
	x.srv = kvserv.NewClusterServer(x.clu, kvserv.Config{})
	l, err := listen()
	if err != nil {
		return err
	}
	go x.srv.Serve(l) // returns when teardown closes the server
	x.base = "http://" + l.Addr().String()
	x.cl = make([]*httpClient, len(rs.workers))
	for i := range x.cl {
		// One transport per worker pinned to one connection: W keep-alive
		// connections, not a shared pool.
		tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
		x.cl[i] = &httpClient{tr: tr, c: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
	}
	if err := x.clu.WaitCaughtUp(10 * time.Second); err != nil {
		return err
	}
	warm := rs.p.tapeLen / 4
	rs.parallel(func(w *worker) { walk(w, 0, warm, x.drive) })
	return nil
}

// httpDo sends one request on c and returns the status and the body, read
// into buf's backing array (grown as needed).
func httpDo(c *http.Client, method, url string, body, buf []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, buf, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, buf, err
	}
	defer resp.Body.Close()
	out := buf[:0]
	for {
		if len(out) == cap(out) {
			out = append(out, 0)[:len(out)]
		}
		n, err := resp.Body.Read(out[len(out):cap(out)])
		out = out[:len(out)+n]
		if err == io.EOF {
			return resp.StatusCode, out, nil
		}
		if err != nil {
			return 0, out, err
		}
	}
}

// do is httpDo on the worker's connection under a span; the body lands in
// w.buf. A transport error counts as a failure and reads as status 0.
func (x *httpCluster) do(w *worker, op uint64, method string, url, body []byte) (int, []byte) {
	sp := w.tr.begin(spHTTPDo, op)
	code, out, err := httpDo(x.cl[w.id].c, method, string(url), body, w.buf)
	w.tr.end(sp)
	w.buf = out[:0]
	if err != nil {
		w.failf("%s %s: %v", method, url, err)
		return 0, nil
	}
	return code, out
}

func (c *httpClient) kvURL(base string, key uint64) []byte {
	c.url = append(append(c.url[:0], base...), "/kv/"...)
	c.url = strconv.AppendUint(c.url, key, 10)
	return c.url
}

func (x *httpCluster) get(w *worker, idx uint32) {
	op := w.tr.beginOp()
	want, exact := w.expect(idx)
	code, body := x.do(w, op, http.MethodGet, x.cl[w.id].kvURL(x.base, uint64(idx)), nil)
	switch code {
	case http.StatusOK:
		w.verify(idx, body, true, want, exact)
	case 0:
		w.done(1)
	default:
		w.failf("GET /kv/%d: status %d", idx, code)
		w.done(1)
	}
	w.tr.end(op)
}

func (x *httpCluster) put(w *worker, idx uint32) {
	op := w.tr.beginOp()
	w.nextValue(w.val, idx)
	code, _ := x.do(w, op, http.MethodPut, x.cl[w.id].kvURL(x.base, uint64(idx)), w.val)
	if code != 0 && code != http.StatusNoContent {
		w.failf("PUT /kv/%d: status %d", idx, code)
	}
	w.done(1)
	w.tr.end(op)
}

func (x *httpCluster) mget(w *worker, i int) {
	op := w.tr.beginOp()
	w.batch(i, httpMGetKeys, false)
	c := x.cl[w.id]
	c.url = append(append(c.url[:0], x.base...), "/mget?keys="...)
	var wants [httpMGetKeys]uint32
	var exact [httpMGetKeys]bool
	for j, idx := range w.idxs {
		if j > 0 {
			c.url = append(c.url, ',')
		}
		c.url = strconv.AppendUint(c.url, uint64(idx), 10)
		wants[j], exact[j] = w.expect(idx)
	}
	code, body := x.do(w, op, http.MethodGet, c.url, nil)
	var resp struct {
		Values [][]byte `json:"values"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &resp) != nil || len(resp.Values) != httpMGetKeys {
		if code != 0 {
			w.failf("GET /mget: status %d, %d values", code, len(resp.Values))
		}
		w.done(httpMGetKeys)
	} else {
		for j, v := range resp.Values {
			w.verify(w.idxs[j], v, v != nil, wants[j], exact[j])
		}
	}
	w.tr.end(op)
}

// drive consumes tape[lo:hi); every request is timed.
func (x *httpCluster) drive(w *worker, lo, hi int) int {
	i := lo
	for i < hi {
		ent := w.tape[i]
		kind, idx := opKind(ent>>24), ent&tapeKeyMask
		timed := w.timed()
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		switch kind {
		case opGet:
			x.get(w, idx)
			if timed {
				w.rd.add(time.Since(t0))
			}
			i++
		case opPut:
			x.put(w, w.own(idx))
			if timed {
				w.wr.add(time.Since(t0))
			}
			i++
		case opMGet:
			x.mget(w, i)
			i += httpMGetKeys
		default:
			panic(fmt.Sprintf("http tape holds kind %d at %d", kind, i))
		}
	}
	return i
}

func (x *httpCluster) round(rs *runState, r int) (time.Duration, bool) {
	n := rs.roundKeyOps()
	d := rs.parallel(func(w *worker) { walk(w, 0, n, x.drive) })
	if rs.o.trace {
		vals := map[string]float64{}
		for _, m := range x.clu.Stats().Members {
			p := strconv.Itoa(m.Partition)
			vals["p"+p+".gets"], vals["p"+p+".puts"] = float64(m.Total.Gets), float64(m.Total.Puts)
			vals["p"+p+".wal_records"] = float64(m.Total.WALRecords)
		}
		rs.event("round-end", r, vals)
	}
	return d, true
}

func (x *httpCluster) finish(rs *runState) error {
	var reconnects uint64
	for p := 0; p < clusterPartitions; p++ {
		for _, f := range x.clu.Followers(p) {
			reconnects += f.Stats().Reconnects
		}
	}
	rs.extra["repl.reconnects"] = float64(reconnects)

	w := rs.workers[0]
	t0 := time.Now()
	sp := w.tr.begin(spWaitCaughtUp, 0)
	err := x.clu.WaitCaughtUp(10 * time.Second)
	w.tr.end(sp)
	if err != nil {
		return fmt.Errorf("follower catch-up: %w", err)
	}
	rs.extra["repl.catchup_ms"] = float64(time.Since(t0)) / 1e6

	// One graceful failover of partition 0, timed to the first write the
	// promoted primary acknowledges over HTTP.
	idx := uint32(w.id)
	for x.clu.Partition(uint64(idx)) != 0 {
		idx += uint32(w.nw)
	}
	t0 = time.Now()
	sp = w.tr.begin(spFailover, 0)
	_, err = x.clu.Failover(0)
	w.tr.end(sp)
	if err != nil {
		return fmt.Errorf("Failover(0): %w", err)
	}
	x.put(w, idx)
	rs.extra["cluster.failover_ms"] = float64(time.Since(t0)) / 1e6
	rs.finalCheck(func(key uint64, buf []byte) ([]byte, bool) { return x.clu.Get(w.reader, key, buf) })
	return nil
}

func (x *httpCluster) teardown(*runState) {
	for _, c := range x.cl {
		c.tr.CloseIdleConnections()
	}
	x.cl = nil
	if x.srv != nil {
		x.srv.Close()
		x.srv = nil
	}
	if x.clu != nil {
		x.clu.Close()
		x.clu = nil
	}
	if x.dir != "" {
		os.RemoveAll(x.dir)
		x.dir = ""
	}
}
