package main

import (
	"fmt"
	"net"
	"os"
	"time"

	"github.com/bravolock/bravo"
	"github.com/bravolock/bravo/internal/kvserv"
	"github.com/bravolock/bravo/internal/wire"
)

// wire-mixed: kvserv over a durable (SyncNone) engine, served on the binary
// wire protocol to W pipelined connections. 2^14 keys stay cache-resident
// so the codec and dispatch dominate: 80 % GET (1 in 10 carrying the
// connection's last commit LSN as min_lsn) / 10 % PUT / 5 % MGET(16) / 5 %
// MPUT(16). Rounds alternate phase A — depth 1, every request timed, the
// latency figures — and phase B — depth wireDepth, the throughput figure.
type wireMixed struct {
	kv  *bravo.ShardedKV
	dir string
	srv *kvserv.Server
	cl  []*wireClient
}

const wireDepth = 8

// wireClient is one worker's connection and its pipelining window.
type wireClient struct {
	conn  *wire.Conn
	req   wire.Request
	slots [wireDepth]wireSlot
	// The last acknowledged PUT: the key and the commit LSN the server
	// returned for it, presented back as min_lsn by opGetTok reads.
	tokIdx uint32
	tokLSN uint64
}

// wireSlot is one request in flight: what was asked and what the oracle
// expected when it was issued (the server answers a connection in order).
type wireSlot struct {
	p     *wire.Pending
	op    uint64 // root span
	kind  opKind
	n     int
	idx   [maxBatch]uint32
	want  [maxBatch]uint32
	exact [maxBatch]bool
}

func (x *wireMixed) plan() plan {
	return plan{keys: 1 << 14, tapeLen: 1 << 16, passes: 1, sampleEvery: 1, mix: []mixEntry{
		{opGet, 72, 1}, {opGetTok, 8, 1}, {opPut, 10, 1}, {opMGet, 5, maxBatch}, {opMPut, 5, maxBatch}}}
}

// listen returns a loopback listener on a port the kernel picks.
func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func (x *wireMixed) setup(rs *runState) (err error) {
	if x.dir, err = rs.newDataDir(); err != nil {
		return err
	}
	if x.kv, err = bravo.OpenShardedKV(x.dir, shards, mkLock(nil), bravo.SyncNone); err != nil {
		return err
	}
	preload(rs, x.kv.Put)
	x.srv = kvserv.New(x.kv, kvserv.Config{})
	l, err := listen()
	if err != nil {
		return err
	}
	go x.srv.ServeWire(l) // returns when teardown closes the server
	x.cl = make([]*wireClient, len(rs.workers))
	for i := range x.cl {
		conn, err := wire.Dial(l.Addr().String(), 5*time.Second)
		if err != nil {
			return err
		}
		x.cl[i] = &wireClient{conn: conn}
	}
	warm := rs.p.tapeLen / 4
	rs.parallel(func(w *worker) {
		walk(w, 0, warm, func(w *worker, lo, hi int) int { return x.drive(w, lo, hi, wireDepth) })
	})
	return nil
}

// issue starts the request at tape[i] into slot s and returns the index
// after the entries it consumed.
func (x *wireMixed) issue(w *worker, c *wireClient, s *wireSlot, i int) int {
	ent := w.tape[i]
	kind, idx := opKind(ent>>24), ent&tapeKeyMask
	s.op = w.tr.beginOp()
	s.kind, s.n = kind, 1
	c.req = wire.Request{}
	next := i + 1
	switch kind {
	case opGetTok:
		s.kind = opGet
		if c.tokLSN != 0 {
			idx = c.tokIdx
			c.req.MinLSN = c.tokLSN
		}
		fallthrough
	case opGet:
		c.req.Op, c.req.Key = wire.OpGet, uint64(idx)
		s.idx[0] = idx
		s.want[0], s.exact[0] = w.expect(idx)
	case opPut:
		idx = w.own(idx)
		w.nextValue(w.val, idx)
		c.req.Op, c.req.Key, c.req.Value = wire.OpPut, uint64(idx), w.val
		s.idx[0] = idx
	case opMGet:
		w.batch(i, maxBatch, false)
		c.req.Op, c.req.Keys = wire.OpMGet, w.keys
		s.n = maxBatch
		for j, k := range w.idxs {
			s.idx[j] = k
			s.want[j], s.exact[j] = w.expect(k)
		}
		next = i + maxBatch
	case opMPut:
		w.batch(i, maxBatch, true)
		w.stampBatch()
		c.req.Op, c.req.Keys, c.req.Values = wire.OpMPut, w.keys, w.vals
		s.n = maxBatch
		next = i + maxBatch
	default:
		panic(fmt.Sprintf("wire tape holds kind %d at %d", kind, i))
	}
	sp := w.tr.begin(spConnStart, s.op)
	p, err := c.conn.Start(&c.req)
	w.tr.end(sp)
	if err != nil {
		w.failf("Conn.Start: %v", err)
	}
	s.p = p
	return next
}

// complete waits for slot s's response and checks it.
func (x *wireMixed) complete(w *worker, c *wireClient, s *wireSlot) {
	defer w.tr.end(s.op)
	if s.p == nil {
		w.done(s.n)
		return
	}
	sp := w.tr.begin(spPendingWait, s.op)
	resp, err := s.p.Wait()
	w.tr.end(sp)
	if err != nil || resp.Status != wire.StatusOK {
		w.failf("%v of key %d: status %v %q err %v", resp.Op, s.idx[0], resp.Status, resp.Msg, err)
		w.done(s.n)
		return
	}
	switch s.kind {
	case opGet:
		w.verify(s.idx[0], resp.Value, true, s.want[0], s.exact[0])
	case opPut:
		if len(resp.LSNs) != 1 {
			w.failf("PUT of key %d: %d commit tokens", s.idx[0], len(resp.LSNs))
		} else {
			c.tokIdx, c.tokLSN = s.idx[0], resp.LSNs[0].LSN
		}
		w.done(1)
	case opMGet:
		if len(resp.Values) != s.n {
			w.failf("MGET: %d values for %d keys", len(resp.Values), s.n)
			w.done(s.n)
			return
		}
		for j, v := range resp.Values {
			w.verify(s.idx[j], v, v != nil, s.want[j], s.exact[j])
		}
	case opMPut:
		if int(resp.Applied) != s.n {
			w.failf("MPUT applied %d of %d", resp.Applied, s.n)
		}
		w.done(s.n)
	}
}

// drive consumes tape[lo:hi) in windows of depth requests: Start each, one
// Flush, Wait each. At depth 1 the window is one request and is timed.
func (x *wireMixed) drive(w *worker, lo, hi, depth int) int {
	c := x.cl[w.id]
	i := lo
	for i < hi {
		timed := w.timed() && depth == 1
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		n := 0
		for ; n < depth && i < hi; n++ {
			i = x.issue(w, c, &c.slots[n], i)
		}
		sp := w.tr.begin(spConnFlush, c.slots[0].op)
		if err := c.conn.Flush(); err != nil {
			w.failf("Conn.Flush: %v", err)
		}
		w.tr.end(sp)
		for j := 0; j < n; j++ {
			x.complete(w, c, &c.slots[j])
		}
		if timed {
			switch c.slots[0].kind {
			case opGet:
				w.rd.add(time.Since(t0))
			case opPut:
				w.wr.add(time.Since(t0))
			}
		}
	}
	return i
}

func (x *wireMixed) round(rs *runState, r int) (time.Duration, bool) {
	depth := 1
	if r%2 == 1 {
		depth = wireDepth
	}
	n := rs.roundKeyOps()
	if depth > 1 {
		n *= wireDepthPasses
	}
	d := rs.parallel(func(w *worker) {
		w.sampling = depth == 1
		walk(w, 0, n, func(w *worker, lo, hi int) int { return x.drive(w, lo, hi, depth) })
	})
	if rs.o.trace {
		t := x.kv.Stats().Total()
		rs.event("round-end", r, map[string]float64{"depth": float64(depth), "gets": float64(t.Gets), "puts": float64(t.Puts),
			"multi_get_batches": float64(t.MultiGetBatches), "write_batches": float64(t.WriteBatches), "wal_records": float64(t.WALRecords)})
	}
	return d, depth > 1
}

// wireDepthPasses is how many tape passes a phase B round makes for each
// pass of a phase A round, so the two phases take about as long.
const wireDepthPasses = 3

func (x *wireMixed) finish(rs *runState) error {
	if err := x.kv.WALError(); err != nil {
		return fmt.Errorf("WAL: %w", err)
	}
	c := x.cl[0]
	rs.finalCheck(func(key uint64, buf []byte) ([]byte, bool) {
		resp, err := c.conn.Do(&wire.Request{Op: wire.OpGet, Key: key})
		return resp.Value, err == nil && resp.Status == wire.StatusOK
	})
	return nil
}

func (x *wireMixed) teardown(*runState) {
	for _, c := range x.cl {
		if c != nil {
			c.conn.Close()
		}
	}
	x.cl = nil
	if x.srv != nil {
		x.srv.Close()
		x.srv = nil
	}
	if x.kv != nil {
		x.kv.Close()
		x.kv = nil
	}
	if x.dir != "" {
		os.RemoveAll(x.dir)
		x.dir = ""
	}
}
