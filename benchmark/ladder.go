package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"github.com/bravolock/bravo"
	"github.com/bravolock/bravo/internal/cluster"
	"github.com/bravolock/bravo/internal/frame"
	"github.com/bravolock/bravo/internal/kvserv"
	"github.com/bravolock/bravo/internal/wire"
)

// The ladder: one goroutine, fixed iteration counts, the same point GET and
// the same PUT timed at each boundary they cross on the way in —
//
//	bias slot → core.Lock → kvs.Sharded (seq, then locked) → durable
//	Sharded → wire codec → wire loopback → HTTP loopback → Cluster in
//	process → cluster over wire/HTTP → follower read
//
// — in ns/op and allocs/op. A layer's self time is its rung minus the rung
// below. Every rung is the median of ladderReps repetitions; none of it
// feeds an end-to-end metric.

const (
	ladderKeys = 1 << 14 // cache-resident, so a rung is its layer's cost, not a cache miss
	ladderReps = 3
)

// rung runs loop(n) ladderReps times and returns the median ns and the
// mean heap allocations per iteration.
func rung(n int, loop func(n int)) (ns, allocs float64) {
	var times []float64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	for rep := 0; rep < ladderReps; rep++ {
		t0 := time.Now()
		loop(n)
		times = append(times, float64(time.Since(t0))/float64(n))
	}
	runtime.ReadMemStats(&ms)
	return median(times), float64(ms.Mallocs-m0) / float64(n*ladderReps)
}

// ladderKey is the i-th key of the ladder's fixed key sequence.
func ladderKey(i int) uint64 { return uint64(i*7919) & (ladderKeys - 1) }

type ladder struct {
	m     map[string]float64
	fails []string
	dir   string
	val   []byte
	buf   []byte
	r     *bravo.Reader
}

func (ld *ladder) failf(format string, args ...any) {
	ld.fails = append(ld.fails, fmt.Sprintf(format, args...))
}

// load stores the ladder's key set through put.
func (ld *ladder) load(put func(key uint64, v []byte)) {
	for k := uint64(0); k < ladderKeys; k++ {
		encodeValue(ld.val, k, 0)
		put(k, ld.val)
	}
}

// check verifies a read of key came back well-formed.
func (ld *ladder) check(what string, key uint64, v []byte, ok bool) {
	if _, good := decodeValue(v, key); !ok || !good {
		ld.failf("%s: key %d: found %v, decodes %v", what, key, ok, good)
	}
}

// runLadder measures every rung and returns the per-layer metrics it
// produces, plus what went wrong.
func runLadder(out io.Writer) (map[string]float64, []string) {
	ld := &ladder{m: map[string]float64{}, val: make([]byte, valueSize), buf: make([]byte, 0, 4096), r: bravo.NewReader()}
	ld.dir = filepath.Join(scratchRoot(), "data", fmt.Sprintf("ladder-%d-%d", os.Getpid(), scratchSeq.Add(1)))
	defer os.RemoveAll(ld.dir)

	ld.m["loadgen.clock_ns"], _ = rung(1<<19, func(n int) {
		var sink time.Duration
		for i := 0; i < n; i++ {
			sink += time.Since(time.Now())
		}
		_ = sink
	})
	ld.locks()
	ld.engines()
	ld.codecs()
	if err := ld.loopback(); err != nil {
		ld.failf("loopback rung: %v", err)
	}
	if err := ld.serving(); err != nil {
		ld.failf("serving rungs: %v", err)
	}
	if err := ld.clustered(); err != nil {
		ld.failf("cluster rungs: %v", err)
	}
	m := ld.m
	m["kvserv.wire_self_us"] = m["wire.get_rtt_us"] - (m["wire.codec_get_ns"]+m["kvs.get_ns"])/1e3

	fmt.Fprintf(out, "GET ladder (ns/op; self = rung minus the rungs it contains)\n")
	row := func(name string, ns, self float64) { fmt.Fprintf(out, "  %-34s %12.1f  self %12.1f\n", name, ns, self) }
	row("bias.slot_ns", m["bias.slot_ns"], m["bias.slot_ns"])
	row("core.rlock_ns", m["core.rlock_ns"], m["core.rlock_ns"]-m["bias.slot_ns"])
	row("kvs.get_locked_ns", m["kvs.get_locked_ns"], m["kvs.get_locked_ns"]-m["core.rlock_ns"])
	row("kvs.get_ns (seq path, no lock)", m["kvs.get_ns"], m["kvs.get_ns"])
	row("wire.codec_get_ns", m["wire.codec_get_ns"], m["wire.codec_get_ns"])
	row("loadgen.loopback_rtt_us (raw echo)", m["loadgen.loopback_rtt_us"]*1e3, m["loadgen.loopback_rtt_us"]*1e3)
	row("wire.get_rtt_us (dispatch+loopback)", m["wire.get_rtt_us"]*1e3, m["kvserv.wire_self_us"]*1e3)
	row("kvserv.http_get_us", m["kvserv.http_get_us"]*1e3, m["kvserv.http_get_us"]*1e3-m["kvs.get_ns"])
	row("cluster.get_ns", m["cluster.get_ns"], m["cluster.get_ns"]-m["kvs.get_ns"])
	row("kvserv.wire_cluster_get_us", m["kvserv.wire_cluster_get_us"]*1e3, m["kvserv.wire_cluster_get_us"]*1e3-m["cluster.get_ns"]-m["wire.codec_get_ns"])
	row("kvserv.http_cluster_get_us", m["kvserv.http_cluster_get_us"]*1e3, m["kvserv.http_cluster_get_us"]*1e3-m["cluster.get_ns"])
	row("repl.follower_get_ns", m["repl.follower_get_ns"], m["repl.follower_get_ns"])
	// Self times telescope to their top rung by construction, so the check
	// worth printing is whether rungs measured apart add up to it.
	adds := func(top string, topNs float64, parts string, sum float64) {
		fmt.Fprintf(out, "  %s = %.0f ns; %s = %.0f ns; unaccounted %+.1f %%\n", top, topNs, parts, sum, 100*(topNs-sum)/topNs)
	}
	route := m["cluster.get_ns"] - m["kvs.get_ns"]
	adds("wire.get_rtt_us", m["wire.get_rtt_us"]*1e3, "kvs.get_ns + wire.codec_get_ns + loadgen.loopback_rtt_us",
		m["kvs.get_ns"]+m["wire.codec_get_ns"]+m["loadgen.loopback_rtt_us"]*1e3)
	adds("kvserv.http_cluster_get_us", m["kvserv.http_cluster_get_us"]*1e3, "kvserv.http_get_us + (cluster.get_ns - kvs.get_ns)",
		m["kvserv.http_get_us"]*1e3+route)
	adds("kvserv.wire_cluster_get_us", m["kvserv.wire_cluster_get_us"]*1e3, "wire.get_rtt_us + (cluster.get_ns - kvs.get_ns)",
		m["wire.get_rtt_us"]*1e3+route)
	fmt.Fprintf(out, "PUT ladder (ns/op)\n")
	row("core.wlock_ns", m["core.wlock_ns"], m["core.wlock_ns"])
	row("kvs.put_ns (volatile)", m["kvs.put_ns"], m["kvs.put_ns"]-m["core.wlock_ns"])
	row("kvs.put_wal_none_ns", m["kvs.put_wal_none_ns"], m["kvs.put_wal_none_ns"]-m["kvs.put_ns"])
	row("cluster.put_ns", m["cluster.put_ns"], m["cluster.put_ns"]-m["kvs.put_wal_none_ns"])
	row("wire.put_rtt_us", m["wire.put_rtt_us"]*1e3, m["wire.put_rtt_us"]*1e3-m["kvs.put_wal_none_ns"])
	row("kvserv.http_put_us", m["kvserv.http_put_us"]*1e3, m["kvserv.http_put_us"]*1e3-m["kvs.put_wal_none_ns"])
	row("kvs.put_wal_always_us (sandbox disk)", m["kvs.put_wal_always_us"]*1e3, m["kvs.put_wal_always_us"]*1e3-m["kvs.put_wal_none_ns"])
	return m, ld.fails
}

// locks: the bias slot, core.Lock over it, and the bare substrate.
func (ld *ladder) locks() {
	lk := bravo.New(bravo.NewGoRW())
	for i := 0; i < 64; i++ { // a slow read enables bias; the rest publish in the cached slot
		lk.RUnlockH(ld.r, lk.RLockH(ld.r))
	}
	eng := lk.Engine()
	misses := 0
	ld.m["bias.slot_ns"], _ = rung(1<<20, func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := eng.TryFastH(ld.r); ok {
				eng.ReleaseFast(ld.r)
			} else {
				misses++
			}
		}
	})
	if misses > 0 {
		ld.failf("bias.slot_ns: %d of the fast-path attempts missed on an uncontended lock", misses)
	}
	ld.m["core.rlock_ns"], _ = rung(1<<20, func(n int) {
		for i := 0; i < n; i++ {
			lk.RUnlockH(ld.r, lk.RLockH(ld.r))
		}
	})
	base := bravo.NewGoRW()
	ld.m["core.rlock_base_ns"], _ = rung(1<<20, func(n int) {
		for i := 0; i < n; i++ {
			base.RUnlock(base.RLock())
		}
	})
	ld.m["core.wlock_ns"], _ = rung(1<<19, func(n int) {
		for i := 0; i < n; i++ {
			lk.Lock()
			lk.Unlock()
		}
	})
}

// engines: the embedded engine, volatile and durable.
func (ld *ladder) engines() {
	kv, err := bravo.NewShardedKV(shards, mkLock(nil))
	if err != nil {
		ld.failf("NewShardedKV: %v", err)
		return
	}
	defer kv.Close()
	ld.load(kv.Put)
	get := func(kv *bravo.ShardedKV) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				k := ladderKey(i)
				v, ok := kv.GetIntoH(ld.r, k, ld.buf[:0])
				if !ok || len(v) != valueSize {
					ld.check("GetIntoH", k, v, ok)
				}
			}
		}
	}
	ld.m["kvs.get_ns"], ld.m["kvs.get_allocs"] = rung(1<<19, get(kv))
	att := kv.SeqReadAttempts()
	kv.SetSeqReadAttempts(0)
	ld.m["kvs.get_locked_ns"], _ = rung(1<<19, get(kv))
	kv.SetSeqReadAttempts(att)
	keys := make([]uint64, maxBatch)
	var dst [][]byte
	ld.m["kvs.mget16_ns"], _ = rung(1<<15, func(n int) {
		for i := 0; i < n; i++ {
			for j := range keys {
				keys[j] = ladderKey(i*maxBatch + j)
			}
			dst = kv.MultiGetIntoH(ld.r, keys, dst)
			ld.check("MultiGetIntoH", keys[0], dst[0], dst[0] != nil)
		}
	})
	// cur is the sequence each key of the engine being written holds, so
	// the CAS rung knows what to swap from without reading it back.
	cur := make([]uint32, ladderKeys)
	put := func(kv *bravo.ShardedKV) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				k := ladderKey(i)
				cur[k] = uint32(i)
				encodeValue(ld.val, k, cur[k])
				kv.Put(k, ld.val)
			}
		}
	}
	ld.m["kvs.put_ns"], _ = rung(1<<18, put(kv))

	// The same locked read over adaptive-go, whose shard lock the engine
	// reaches through its hand-written innerH bypass.
	akv, err := bravo.NewShardedKV(shards, func() bravo.RWLock { return bravo.NewAdaptive(bravo.New(bravo.NewGoRW())) })
	if err != nil {
		ld.failf("NewShardedKV(adaptive-go): %v", err)
		return
	}
	defer akv.Close()
	ld.load(akv.Put)
	akv.SetSeqReadAttempts(0)
	ld.m["kvs.get_locked_adaptive_ns"], _ = rung(1<<19, get(akv))

	dkv, err := bravo.OpenShardedKV(filepath.Join(ld.dir, "none"), shards, mkLock(nil), bravo.SyncNone)
	if err != nil {
		ld.failf("OpenShardedKV(SyncNone): %v", err)
		return
	}
	defer dkv.Close()
	ld.load(dkv.Put)
	clear(cur)
	ld.m["kvs.put_wal_none_ns"], _ = rung(1<<17, put(dkv))
	old := make([]byte, valueSize)
	ld.m["kvs.cas_ns"], _ = rung(1<<16, func(n int) {
		for i := 0; i < n; i++ {
			k := ladderKey(i)
			encodeValue(old, k, cur[k])
			cur[k] = uint32(i) + 1<<20
			encodeValue(ld.val, k, cur[k])
			if ok, err := dkv.CompareAndSwap(k, old, ld.val); !ok || err != nil {
				ld.failf("CompareAndSwap(%d): swapped %v, err %v", k, ok, err)
				return
			}
		}
	})
	txk := make([]uint64, 4)
	ld.m["kvs.txn4_ns"], _ = rung(1<<15, func(n int) {
		for i := 0; i < n; i++ {
			for j := range txk {
				txk[j] = ladderKey(4*i + j)
			}
			err := dkv.Txn(txk, func(tx *bravo.KVTx) error {
				for _, k := range txk {
					encodeValue(ld.val, k, uint32(i))
					tx.Put(k, ld.val)
				}
				return nil
			})
			if err != nil {
				ld.failf("Txn: %v", err)
				return
			}
		}
	})

	// SyncAlways is the sandbox disk's number, gated by nothing.
	skv, err := bravo.OpenShardedKV(filepath.Join(ld.dir, "always"), shards, mkLock(nil), bravo.SyncAlways)
	if err != nil {
		ld.failf("OpenShardedKV(SyncAlways): %v", err)
		return
	}
	defer skv.Close()
	s0 := skv.Stats().Total()
	ns, _ := rung(64, put(skv))
	ld.m["kvs.put_wal_always_us"] = ns / 1e3
	vals := make([][]byte, maxBatch)
	for j := range vals {
		vals[j] = make([]byte, valueSize)
	}
	ns, _ = rung(32, func(n int) {
		for i := 0; i < n; i++ {
			for j := range keys {
				keys[j] = ladderKey(i*maxBatch + j)
				encodeValue(vals[j], keys[j], uint32(i))
			}
			skv.MultiPut(keys, vals)
		}
	})
	ld.m["kvs.mput16_wal_always_us"] = ns / 1e3
	s1 := skv.Stats().Total()
	ld.m["kvs.wal_syncs_per_kwrite"] = 1e3 * float64(s1.WALSyncs-s0.WALSyncs) / float64(s1.WALKeys-s0.WALKeys)
}

// codecs: frame and wire encode/decode with no socket.
func (ld *ladder) codecs() {
	payload := make([]byte, valueSize)
	var fb []byte
	ld.m["frame.seal_split_ns"], _ = rung(1<<19, func(n int) {
		for i := 0; i < n; i++ {
			fb = frame.Append(fb[:0], payload)
			if p, _, st := frame.Split(fb); st != frame.OK || len(p) != valueSize {
				ld.failf("frame.Split: status %v, %d bytes", st, len(p))
				return
			}
		}
	})
	encodeValue(ld.val, 7, 1)
	roundTrip := func(req *wire.Request, resp *wire.Response) func(n int) {
		var qb, pb []byte
		return func(n int) {
			for i := 0; i < n; i++ {
				qb = wire.AppendRequest(qb[:0], req)
				p, _, st := frame.Split(qb)
				if _, ok := wire.DecodeRequest(p); st != frame.OK || !ok {
					ld.failf("wire request round trip failed")
					return
				}
				pb = wire.AppendResponse(pb[:0], resp)
				p, _, st = frame.Split(pb)
				if _, ok := wire.DecodeResponse(p); st != frame.OK || !ok {
					ld.failf("wire response round trip failed")
					return
				}
			}
		}
	}
	ld.m["wire.codec_get_ns"], ld.m["wire.codec_get_allocs"] = rung(1<<18, roundTrip(
		&wire.Request{Op: wire.OpGet, ID: 1, Key: 7},
		&wire.Response{Op: wire.OpGet, ID: 1, Value: ld.val}))
	keys := make([]uint64, maxBatch)
	vals := make([][]byte, maxBatch)
	for j := range keys {
		keys[j], vals[j] = uint64(j), ld.val
	}
	ld.m["wire.codec_mput16_ns"], _ = rung(1<<16, roundTrip(
		&wire.Request{Op: wire.OpMPut, ID: 1, Keys: keys, Values: vals},
		&wire.Response{Op: wire.OpMPut, ID: 1, Applied: maxBatch, LSNs: []wire.ShardLSN{{Shard: 1, LSN: 2}}}))
}

// loopback: the wire GET's request and response frames carried by a bare
// TCP echo — one write and one read on each side, no codec, no dispatch.
// It is the host's share of wire.get_rtt_us, which no change to the program
// can remove.
func (ld *ladder) loopback() error {
	encodeValue(ld.val, 7, 1)
	req := wire.AppendRequest(nil, &wire.Request{Op: wire.OpGet, ID: 1, Key: 7})
	resp := wire.AppendResponse(nil, &wire.Response{Op: wire.OpGet, ID: 1, Value: ld.val})
	l, err := listen()
	if err != nil {
		return err
	}
	defer l.Close()
	served := make(chan struct{})
	go func() { // ends when the client closes its connection
		defer close(served)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		in := make([]byte, len(req))
		for {
			if _, err := io.ReadFull(c, in); err != nil {
				return
			}
			if _, err := c.Write(resp); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		l.Close() // unblocks Accept
		<-served
		return err
	}
	in := make([]byte, len(resp))
	var ioErr error
	ns, _ := rung(1<<13, func(n int) {
		for i := 0; i < n && ioErr == nil; i++ {
			if _, ioErr = c.Write(req); ioErr == nil {
				_, ioErr = io.ReadFull(c, in)
			}
		}
	})
	c.Close()
	<-served
	ld.m["loadgen.loopback_rtt_us"] = ns / 1e3
	return ioErr
}

// front is a kvserv.Server listening on loopback for both front-ends, with
// one wire connection and one keep-alive HTTP connection to it.
type front struct {
	srv  *kvserv.Server
	conn *wire.Conn
	tr   *http.Transport
	hc   *http.Client
	base string
}

func openFront(srv *kvserv.Server) (*front, error) {
	f := &front{srv: srv}
	wl, err := listen()
	if err != nil {
		return nil, err
	}
	go srv.ServeWire(wl) // returns when close closes the server
	hl, err := listen()
	if err != nil {
		srv.Close()
		return nil, err
	}
	go srv.Serve(hl)
	if f.conn, err = wire.Dial(wl.Addr().String(), 5*time.Second); err != nil {
		srv.Close()
		return nil, err
	}
	f.tr = &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	f.hc = &http.Client{Transport: f.tr, Timeout: 10 * time.Second}
	f.base = "http://" + hl.Addr().String()
	return f, nil
}

func (f *front) close() {
	f.conn.Close()
	f.tr.CloseIdleConnections()
	f.srv.Close()
}

// rtts times a point GET and a point PUT over f's wire and HTTP
// connections and stores them under the given metric names ("" skips).
func (ld *ladder) rtts(f *front, wireGet, wireGetAllocs, wirePut, httpGet, httpGetAllocs, httpPut string) {
	us := func(name, allocName string, n int, loop func(n int)) {
		if name == "" {
			return
		}
		ns, allocs := rung(n, loop)
		ld.m[name] = ns / 1e3
		if allocName != "" {
			ld.m[allocName] = allocs
		}
	}
	var req wire.Request
	us(wireGet, wireGetAllocs, 1<<13, func(n int) {
		for i := 0; i < n; i++ {
			req = wire.Request{Op: wire.OpGet, Key: ladderKey(i)}
			resp, err := f.conn.Do(&req)
			if err != nil || resp.Status != wire.StatusOK || len(resp.Value) != valueSize {
				ld.failf("%s: status %v err %v", wireGet, resp.Status, err)
				return
			}
		}
	})
	us(wirePut, "", 1<<13, func(n int) {
		for i := 0; i < n; i++ {
			k := ladderKey(i)
			encodeValue(ld.val, k, uint32(i))
			req = wire.Request{Op: wire.OpPut, Key: k, Value: ld.val}
			if resp, err := f.conn.Do(&req); err != nil || resp.Status != wire.StatusOK {
				ld.failf("%s: status %v err %v", wirePut, resp.Status, err)
				return
			}
		}
	})
	url := func(k uint64) string { return f.base + "/kv/" + strconv.FormatUint(k, 10) }
	us(httpGet, httpGetAllocs, 1<<12, func(n int) {
		for i := 0; i < n; i++ {
			code, body, err := httpDo(f.hc, http.MethodGet, url(ladderKey(i)), nil, ld.buf)
			if err != nil || code != http.StatusOK || len(body) != valueSize {
				ld.failf("%s: status %d err %v", httpGet, code, err)
				return
			}
		}
	})
	us(httpPut, "", 1<<12, func(n int) {
		for i := 0; i < n; i++ {
			k := ladderKey(i)
			encodeValue(ld.val, k, uint32(i))
			if code, _, err := httpDo(f.hc, http.MethodPut, url(k), ld.val, ld.buf); err != nil || code != http.StatusNoContent {
				ld.failf("%s: status %d err %v", httpPut, code, err)
				return
			}
		}
	})
}

// serving: kvserv over one durable engine, on both front-ends.
func (ld *ladder) serving() error {
	kv, err := bravo.OpenShardedKV(filepath.Join(ld.dir, "serv"), shards, mkLock(nil), bravo.SyncNone)
	if err != nil {
		return err
	}
	defer kv.Close()
	ld.load(kv.Put)
	f, err := openFront(kvserv.New(kv, kvserv.Config{}))
	if err != nil {
		return err
	}
	defer f.close()
	ld.rtts(f, "wire.get_rtt_us", "wire.get_allocs", "wire.put_rtt_us", "kvserv.http_get_us", "kvserv.http_get_allocs", "kvserv.http_put_us")
	return nil
}

// clustered: the cluster in process, over both front-ends, and its
// followers.
func (ld *ladder) clustered() error {
	clu, err := cluster.Open(cluster.Config{
		Partitions: clusterPartitions, Shards: clusterShards, Followers: clusterFollowers,
		Dir: filepath.Join(ld.dir, "cluster"), Policy: bravo.SyncNone, MkLock: mkLock(nil),
	})
	if err != nil {
		return err
	}
	defer clu.Close()
	var putErr error
	ld.load(func(k uint64, v []byte) {
		if _, err := clu.Put(k, v, 0); err != nil {
			putErr = err
		}
	})
	if putErr != nil {
		return putErr
	}
	var sink int
	ld.m["cluster.route_ns"], _ = rung(1<<20, func(n int) {
		for i := 0; i < n; i++ {
			sink += clu.Partition(ladderKey(i))
		}
	})
	_ = sink
	ld.m["cluster.get_ns"], _ = rung(1<<19, func(n int) {
		for i := 0; i < n; i++ {
			k := ladderKey(i)
			v, ok := clu.Get(ld.r, k, ld.buf[:0])
			if !ok || len(v) != valueSize {
				ld.check("Cluster.Get", k, v, ok)
			}
		}
	})
	ld.m["cluster.put_ns"], _ = rung(1<<16, func(n int) {
		for i := 0; i < n; i++ {
			k := ladderKey(i)
			encodeValue(ld.val, k, uint32(i))
			if _, err := clu.Put(k, ld.val, 0); err != nil {
				ld.failf("Cluster.Put: %v", err)
				return
			}
		}
	})

	// Visibility: PUT acknowledged on the primary → the follower has
	// applied it.
	var vis []float64
	for i := 0; i < 256; i++ {
		k := ladderKey(i)
		encodeValue(ld.val, k, uint32(i)+1<<20)
		tok, err := clu.Put(k, ld.val, 0)
		t0 := time.Now()
		if err != nil {
			return err
		}
		pi, sh, _ := clu.SplitGlobalShard(tok.Shard)
		if !clu.Followers(pi)[0].WaitMinLSN(sh, tok.LSN, 2*time.Second) {
			return fmt.Errorf("follower of partition %d never applied LSN %d of shard %d", pi, tok.LSN, sh)
		}
		vis = append(vis, float64(time.Since(t0))/1e3)
	}
	ld.m["repl.visibility_us"] = median(vis)
	if err := clu.WaitCaughtUp(10 * time.Second); err != nil {
		return err
	}
	fe := clu.Followers(0)[0].Engine()
	var fkeys []uint64 // partition 0's share of the ladder's key sequence
	for i := 0; i < ladderKeys; i++ {
		if k := ladderKey(i); clu.Partition(k) == 0 {
			fkeys = append(fkeys, k)
		}
	}
	ld.m["repl.follower_get_ns"], _ = rung(1<<19, func(n int) {
		for i := 0; i < n; i++ {
			k := fkeys[i%len(fkeys)]
			v, ok := fe.GetIntoH(ld.r, k, ld.buf[:0])
			if !ok || len(v) != valueSize {
				ld.check("follower GetIntoH", k, v, ok)
			}
		}
	})

	f, err := openFront(kvserv.NewClusterServer(clu, kvserv.Config{}))
	if err != nil {
		return err
	}
	defer f.close()
	ld.rtts(f, "kvserv.wire_cluster_get_us", "", "", "kvserv.http_cluster_get_us", "", "")
	return nil
}
