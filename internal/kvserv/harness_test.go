package kvserv

// The front-end harness. Four stores (volatile, durable, a follower's
// replica, a cluster) behind two front ends (HTTP, wire) must give the same
// answers, so every end-to-end suite here draws from one op table and checks
// one model. An op is a wire.Request, which HTTP gets spelled as its own
// request; either answer, read back as a wire.Response, must be the model's
// (expect): status, values, batch result, and a commit token per shard a
// write touched on every store with a log, with an epoch on a cluster only.
// A suite (runCfg) runs one client per (store, front end) cell in sequence,
// the edge script shuffled into its draws, then restarts a durable store and
// fails a cluster partition over, then runs concurrent clients; each owns
// its key range, so its model is exact. TTLs share one deadline per run, the
// reaper runs throughout, and a cluster ends with a fenced partition.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/cluster"
	"github.com/bravolock/bravo/internal/core"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/locks/stdrw"
	"github.com/bravolock/bravo/internal/repl"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/wire"
)

// The stores, in the order every per-store table is indexed by.
const (
	volatileStore = iota
	durableStore
	followerStore
	clusterStore
	numStores
)

var storeNames = [numStores]string{"volatile", "durable", "follower", "cluster"}

// runCfg is one suite: stores × front ends ("HTTP", "wire"), the op kinds
// drawn and edge rows sent (nil: all of each), and the schedule.
type runCfg struct {
	stores []int
	fronts []string
	ops    []string
	seq    int           // ops of each cell's sequential client, edges included
	conc   int           // concurrent clients per cell after it, seq/2 ops each
	ttl    time.Duration // the TTL deadline, after the stores are up (0: no TTLs)
	alone  bool          // not beside the other suites, whose load starves its TTL window
}

func (cfg *runCfg) has(kind string) bool { return cfg.ops == nil || slices.Contains(cfg.ops, kind) }

func mkMatrixLock() rwl.RWLock { return core.New(new(stdrw.Lock)) }

// hstore is one store served on both front ends, and what the harness knows
// of its logs: per global shard, the highest LSN a token has shown (a lower
// bound), and on a cluster each partition's epoch and its bounds when it
// failed over, the cut its older tokens are judged by.
type hstore struct {
	kind       int
	dir        string
	srv        *Server
	http, wire string
	eng        *kvs.Sharded // a follower's is its primary's, a cluster's an empty one shaped like a partition's
	f          *repl.Follower
	clu        *cluster.Cluster
	primary    *hstore // a follower's: where the writes it refuses go

	mu    sync.Mutex
	bound map[uint32]uint64
	epoch []uint64
	cut   map[uint32]uint64
}

func newHStore(t *testing.T, kind int, cfg Config) *hstore {
	st := &hstore{kind: kind, dir: t.TempDir(), bound: map[uint32]uint64{}, epoch: []uint64{0}}
	var err error
	switch kind {
	case volatileStore:
		st.eng, err = kvs.NewSharded(8, mkMatrixLock)
	case durableStore:
		st.eng, err = kvs.OpenSharded(st.dir, 8, mkMatrixLock, kvs.SyncNone)
		t.Cleanup(func() { st.eng.Close() })
	case followerStore:
		st.primary = newHStore(t, durableStore, cfg)
		st.eng = st.primary.eng
		st.f, err = repl.Open(repl.Config{Primary: st.primary.wire, MkLock: mkMatrixLock, RetryInterval: 5 * time.Millisecond})
		t.Cleanup(func() { st.f.Close() })
		// Short, so the tokens past the log a client draws cost little; one
		// told 409 for a token it was handed retries (see step).
		cfg.MinLSNWait = 5 * time.Millisecond
		st.srv = NewFollower(st.f, cfg)
	case clusterStore:
		st.eng, _ = kvs.NewSharded(4, mkMatrixLock) // for shard's ShardOf
		st.clu, err = cluster.Open(cluster.Config{Partitions: 2, Shards: 4, Followers: 1, Dir: st.dir,
			Policy: kvs.SyncNone, RetryInterval: 5 * time.Millisecond})
		t.Cleanup(func() { st.clu.Close() })
		st.srv = NewClusterServer(st.clu, cfg)
		st.epoch = []uint64{1, 1}
	}
	if err != nil {
		t.Fatal(err)
	}
	if st.srv == nil {
		st.srv = New(st.eng, cfg)
	}
	st.http, st.wire = serveBoth(t, st.srv)
	return st
}

// restart closes st's server and engine and serves its directory afresh:
// every key its clients hold must read back, a TTL'd one too while the
// deadline has not passed; the new server then takes a checkpoint, which
// its STATS must count once per shard.
func (st *hstore) restart(t *testing.T, cfg Config, all []*client) {
	hangUp(all)
	st.srv.Close()
	err := st.eng.Close()
	if err == nil {
		st.eng, err = kvs.OpenSharded(st.dir, 8, mkMatrixLock, kvs.SyncNone)
	}
	if err != nil {
		t.Fatal(err)
	}
	st.srv = New(st.eng, cfg)
	st.http, st.wire = serveBoth(t, st.srv)
	for _, c := range all {
		for k := range c.model {
			if c.st == st {
				c.do(wire.Request{Op: wire.OpGet, Key: k})
			}
		}
	}
	if resp, err := http.Post(st.http+"/checkpoint", "", nil); err != nil || resp.Body.Close() != nil || resp.StatusCode != 200 {
		t.Fatalf("checkpoint after the restart = %v (%v), want 200", resp, err)
	}
}

// serveBoth serves srv on two fresh loopback listeners until the test ends.
func serveBoth(t *testing.T, srv *Server) (base, addr string) {
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	wl, err2 := net.Listen("tcp", "127.0.0.1:0")
	if err = cmp.Or(err, err2); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	go func() { done <- srv.Serve(hl) }()
	go func() { done <- srv.ServeWire(wl) }()
	t.Cleanup(func() {
		srv.Close()
		if errs := [2]error{<-done, <-done}; !slices.Contains(errs[:], http.ErrServerClosed) || !slices.Contains(errs[:], ErrServerClosed) {
			t.Errorf("Serve and ServeWire returned %v after Close", errs)
		}
	})
	return "http://" + hl.Addr().String(), wl.Addr().String()
}

// shard is key's partition and global shard, the Shard its tokens carry.
func (st *hstore) shard(k uint64) (pi int, g uint32) {
	if st.clu != nil {
		pi = st.clu.Partition(k)
	}
	return pi, uint32(pi*st.eng.NumShards() + st.eng.ShardOf(k))
}

// bounds is the bound of each global shard keys touch.
func (st *hstore) bounds(keys []uint64) map[uint32]uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	b := map[uint32]uint64{}
	for _, k := range keys {
		_, g := st.shard(k)
		b[g] = st.bound[g]
	}
	return b
}

// aheadLSN is past any log a test writes.
const aheadLSN = 1 << 40

// verdict is how st must answer a read of keys with the token (epoch, lsn),
// or any of also where the bounds cannot tell. A cluster judges each key by
// its partition's log, by the cut that ended an older epoch, or refuses a
// later one; the first key that fails decides.
func (st *hstore) verdict(epoch, lsn uint64, keys []uint64) (want wire.Status, also []wire.Status) {
	switch {
	case lsn == 0:
		return wire.StatusOK, nil
	case st.kind == volatileStore, st.kind == clusterStore && epoch == 0:
		return wire.StatusBadRequest, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, k := range keys {
		pi, g := st.shard(k)
		have := st.bound[g]
		if st.kind == clusterStore && epoch > st.epoch[pi] {
			return wire.StatusBadRequest, also
		} else if st.kind == clusterStore && epoch < st.epoch[pi] {
			have = st.cut[g]
		}
		if lsn >= aheadLSN {
			return wire.StatusConflict, also
		} else if lsn > have {
			also = []wire.Status{wire.StatusConflict}
		}
	}
	return wire.StatusOK, also
}

// entry is the model's view of one key.
type entry struct {
	v   []byte
	ttl bool          // expires at the run's deadline
	tok wire.ShardLSN // the token of the last write to it
}

const keySpan = 16

// client is one connection's seeded traffic over the key range it owns.
type client struct {
	t        *testing.T
	cfg      *runCfg
	st       *hstore
	fr, name string
	rng      *rand.Rand
	lo       uint64 // the client's keys are [lo, lo+keySpan)
	model    map[uint64]entry
	deadline time.Time // the TTL deadline (zero: no TTLs)
	hc       *http.Client
	wcs      map[string]*wire.Conn
	failed   bool
}

func (c *client) fail(format string, args ...any) {
	c.failed = true
	c.t.Errorf("%s: %s", c.name, fmt.Sprintf(format, args...))
}

func (c *client) key() uint64 { return c.lo + c.rng.Uint64N(keySpan) }

func (c *client) keys() []uint64 {
	ks := make([]uint64, 1+c.rng.IntN(4))
	for i := range ks {
		ks[i] = c.key()
	}
	return ks
}

func (c *client) part(k uint64) int { pi, _ := c.st.shard(k); return pi }

// value is a fresh value, now and then the empty one.
func (c *client) value() []byte {
	if c.rng.IntN(16) == 0 {
		return []byte{}
	}
	return strconv.AppendUint(nil, c.rng.Uint64N(1<<20), 10)
}

// cond is a value to compare with: absent, a key's current one, or stale.
func (c *client) cond() []byte {
	if n := c.rng.IntN(3); n == 0 {
		return nil
	} else if e, ok := c.model[c.key()]; ok && n == 1 {
		return e.v
	}
	return []byte("stale")
}

// ttl is, one draw in n, the time left until the deadline.
func (c *client) ttl(n int) time.Duration {
	if c.deadline.IsZero() || c.rng.IntN(n) != 0 {
		return 0
	}
	return time.Until(c.deadline).Truncate(time.Millisecond) + time.Millisecond
}

// token gives a read no token, one the store's writes covered, one past
// its log, one without an epoch, or one from an epoch no partition reached.
func (c *client) token(req wire.Request, keys []uint64) wire.Request {
	pi, bounds := c.part(keys[0]), c.st.bounds(keys)
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	switch n := c.rng.IntN(20); {
	case n < 12:
	case n < 17:
		req.MinLSN = aheadLSN
		for _, b := range bounds {
			req.MinLSN = min(req.MinLSN, b)
		}
		if req.MinLSN > 0 {
			req.Epoch = c.st.epoch[pi]
		}
	case n == 17:
		req.Epoch, req.MinLSN = c.st.epoch[pi], aheadLSN
	default:
		req.MinLSN, req.Epoch = 1, uint64(n-18)*99
	}
	return req
}

// opTable is every op a schedule draws, by the name a suite selects it by.
var opTable = []struct {
	name   string
	weight int
	draw   func(c *client) wire.Request
}{
	{"get", 24, func(c *client) wire.Request {
		k := c.key()
		return c.token(wire.Request{Op: wire.OpGet, Key: k}, []uint64{k})
	}},
	{"mget", 8, func(c *client) wire.Request {
		ks := c.keys()
		return c.token(wire.Request{Op: wire.OpMGet, Keys: ks}, ks)
	}},
	{"put", 16, func(c *client) wire.Request {
		return wire.Request{Op: wire.OpPut, Key: c.key(), Value: c.value(), TTL: c.ttl(4)}
	}},
	{"delete", 8, func(c *client) wire.Request { return wire.Request{Op: wire.OpDelete, Key: c.key()} }},
	{"mput", 6, func(c *client) wire.Request {
		req := wire.Request{Op: wire.OpMPut, Keys: c.keys(), TTL: c.ttl(3)}
		for range req.Keys {
			req.Values = append(req.Values, c.value())
		}
		return req
	}},
	{"mdelete", 4, func(c *client) wire.Request { return wire.Request{Op: wire.OpMDelete, Keys: c.keys()} }},
	{"cas", 8, func(c *client) wire.Request {
		req := wire.Request{Op: wire.OpCas, Key: c.key(), Old: c.cond(), New: c.value()}
		if c.rng.IntN(5) == 0 {
			req.New = nil
		}
		return req
	}},
	{"txn", 8, func(c *client) wire.Request {
		// Up to two conditions and one to three writes; three in four stay
		// on one partition, so a cluster commits them.
		req, anchor, same := wire.Request{Op: wire.OpTxn}, c.key(), c.rng.IntN(4) > 0
		pick := func() uint64 {
			for {
				if k := c.key(); !same || c.part(k) == c.part(anchor) {
					return k
				}
			}
		}
		for range c.rng.IntN(3) {
			k, v := pick(), c.cond()
			if e, ok := c.model[k]; ok && c.rng.IntN(2) == 0 {
				v = e.v
			}
			req.Conds = append(req.Conds, wire.TxnCond{Key: k, Value: v})
		}
		for range 1 + c.rng.IntN(3) {
			op := wire.TxnOp{Key: pick(), Del: c.rng.IntN(4) == 0}
			if !op.Del {
				op.Value, op.TTL = c.value(), c.ttl(4)
			}
			req.TxnOps = append(req.TxnOps, op)
		}
		return req
	}},
}

var oversize = make([]byte, MaxValueBytes+1)

// edges are the ops every sequential client sends once: each value cap,
// the transactions every store refuses, and one within budget once collapsed.
func (c *client) edges() []wire.Request {
	k, v := c.key(), []byte("v")
	// Distinct keys, one past the budget and so past the client's span: the
	// refusal writes nowhere. Then nine keys, each with a condition that
	// holds and a write: eighteen declarations, nine once they collapse, on
	// one partition of a cluster when the span has nine there.
	over, nine, span := wire.Request{Op: wire.OpTxn}, wire.Request{Op: wire.OpTxn}, make([]uint64, kvs.MaxTxnKeys+1)
	for i := range span {
		span[i] = c.lo + uint64(i)
		over.TxnOps = append(over.TxnOps, wire.TxnOp{Key: span[i], Value: v})
	}
	span = span[:keySpan]
	slices.SortStableFunc(span, func(a, b uint64) int { return c.part(a) - c.part(b) })
	if c.part(span[0]) != c.part(span[8]) {
		span = span[keySpan-9:]
	}
	for _, k := range span[:9] {
		nine.Conds = append(nine.Conds, wire.TxnCond{Key: k, Value: c.model[k].v})
		nine.TxnOps = append(nine.TxnOps, wire.TxnOp{Key: k, Value: v})
	}
	return []wire.Request{
		{Op: wire.OpPut, Key: k, Value: oversize},
		{Op: wire.OpMPut, Keys: []uint64{k, c.key()}, Values: [][]byte{v, oversize}},
		{Op: wire.OpCas, Key: k, Old: oversize, New: v},
		{Op: wire.OpTxn, Conds: []wire.TxnCond{{Key: k, Value: oversize}}, TxnOps: []wire.TxnOp{{Key: k, Value: v}}},
		{Op: wire.OpTxn, TxnOps: []wire.TxnOp{{Key: k, Value: oversize}}},
		{Op: wire.OpTxn},
		over, nine,
	}
}

// httpOnly are requests the HTTP codec answers itself, and routes no wire
// op has: want is each store's status (0: not sent), {k} a client's key.
// A 16 MiB body goes where its paths differ: past Writable to the cap every
// server's readJSON enforces, and to a follower's refusal before reading.
var httpOnly = []struct {
	kind, method, path, body string
	want                     [numStores]int
}{
	{"get", "GET", "/kv/notanumber", "", [...]int{400, 400, 400, 400}},
	{"get", "GET", "/kv/{k}?min_lsn=abc", "", [...]int{400, 400, 400, 400}},
	{"get", "GET", "/kv/{k}?min_lsn=1&epoch=xyz", "", [...]int{400, 400, 400, 400}},
	{"mget", "GET", "/mget?keys={k},x", "", [...]int{400, 400, 400, 400}},
	{"mget", "GET", "/mget", "", [...]int{400, 400, 400, 400}},
	{"put", "PUT", "/kv/{k}?ttl=0s", "x", [...]int{400, 400, 403, 400}},
	{"put", "PUT", "/kv/{k}?ttl=-300ms", "x", [...]int{400, 400, 403, 400}},
	{"put", "PUT", "/kv/{k}?ttl=99999999999999999999h", "x", [...]int{400, 400, 403, 400}},
	{"put", "PUT", "/kv/{k}?async=1&ttl=forever", "x", [...]int{400, 400, 403, 400}},
	{"mput", "POST", "/mput", `{"entries":[{"key":{k},"value":"eA=="}],"ttl":"0s"}`, [...]int{400, 400, 403, 400}},
	{"mput", "POST", "/mput", `{"entries":`, [...]int{400, 400, 403, 400}},
	{"cas", "POST", "/cas", `{`, [...]int{400, 400, 403, 400}},
	{"txn", "POST", "/txn", `{"ops":[{"op":"put","key":{k},"ttl":"0s"}]}`, [...]int{400, 400, 403, 400}},
	{"txn", "POST", "/txn", `{"ops":[{"op":"delete","key":{k},"value":"eA=="}]}`, [...]int{400, 400, 403, 400}},
	{"txn", "POST", "/txn", `{"ops":[{"op":"upsert","key":{k}}]}`, [...]int{400, 400, 403, 400}},
	{"flush", "POST", "/flush", "", [...]int{404, 404, 404, 404}},
	{"checkpoint", "POST", "/checkpoint", "", [...]int{409, 200, 403, 200}},
	{"repl", "GET", "/repl/status", "", [...]int{404, 200, 200, 404}},
	{"repl", "GET", "/repl/stream?shard=0&from=1", "", [...]int{404, 404, 404, 404}},
	{"failover", "POST", "/failover/9", "", [...]int{404, 404, 404, 400}},
	{"body", "POST", "/mput", "huge", [...]int{413, 0, 403, 0}},
	{"body", "POST", "/cas", "huge", [...]int{413, 0, 403, 0}},
	{"body", "POST", "/txn", "huge", [...]int{413, 0, 403, 0}},
}

// hugeBody is a JSON body one byte over MaxMPutBodyBytes.
var hugeBody = sync.OnceValue(func() []byte {
	return append([]byte("{"), bytes.Repeat([]byte(" "), MaxMPutBodyBytes)...)
})

// opKeys is every key req names, in order: a TXN's conditions, then its ops.
func opKeys(req *wire.Request) []uint64 {
	switch req.Op {
	case wire.OpGet, wire.OpPut, wire.OpDelete, wire.OpCas:
		return []uint64{req.Key}
	}
	ks := slices.Clone(req.Keys)
	for _, c := range req.Conds {
		ks = append(ks, c.Key)
	}
	for _, o := range req.TxnOps {
		ks = append(ks, o.Key)
	}
	return ks
}

// expect is the model's answer to req from a store of the given kind, the
// statuses also acceptable (see verdict), and the model after it; expired
// reads it with the TTL deadline passed.
func (c *client) expect(req *wire.Request, kind int, expired bool) (want wire.Response, also []wire.Status, next map[uint64]entry) {
	next = maps.Clone(c.model)
	maps.DeleteFunc(next, func(_ uint64, e entry) bool { return expired && e.ttl })
	want, keys := wire.Response{Op: req.Op}, opKeys(req)
	big := func(v []byte) bool { return len(v) > MaxValueBytes }
	switch {
	case mutates(req.Op) && kind == followerStore:
		want.Status = wire.StatusReadOnly
		return want, nil, c.model
	case big(req.Value) || big(req.Old) || slices.ContainsFunc(req.Values, big) ||
		slices.ContainsFunc(req.Conds, func(cd wire.TxnCond) bool { return big(cd.Value) }) ||
		slices.ContainsFunc(req.TxnOps, func(o wire.TxnOp) bool { return big(o.Value) }):
		want.Status = wire.StatusTooLarge
		return want, nil, c.model
	}
	switch req.Op {
	case wire.OpGet, wire.OpMGet:
		want.Status, also = c.st.verdict(req.Epoch, req.MinLSN, keys)
		for _, k := range keys {
			want.Values = append(want.Values, next[k].v)
		}
		if _, ok := next[req.Key]; req.Op == wire.OpGet {
			if want.Value, want.Values = want.Values[0], nil; !ok && want.Status == wire.StatusOK {
				want.Status = wire.StatusNotFound
			}
		}
	case wire.OpPut:
		next[req.Key] = entry{v: req.Value, ttl: req.TTL > 0}
	case wire.OpDelete:
		if _, ok := next[req.Key]; !ok {
			want.Status = wire.StatusNotFound
		}
		delete(next, req.Key)
	case wire.OpMPut:
		for i, k := range keys {
			next[k] = entry{v: req.Values[i], ttl: req.TTL > 0}
		}
		want.Applied = uint32(len(keys))
	case wire.OpMDelete:
		for _, k := range keys {
			if _, ok := next[k]; ok {
				want.Applied++
				delete(next, k)
			}
		}
	case wire.OpCas:
		e, ok := next[req.Key]
		if want.Swapped = req.Old == nil && !ok || req.Old != nil && ok && bytes.Equal(e.v, req.Old); want.Swapped && req.New == nil {
			delete(next, req.Key)
		} else if want.Swapped {
			next[req.Key] = entry{v: req.New}
		}
	case wire.OpTxn:
		uniq := slices.Clone(keys)
		slices.Sort(uniq)
		if distinct := len(slices.Compact(uniq)); distinct == 0 || distinct > kvs.MaxTxnKeys || slices.ContainsFunc(keys, func(k uint64) bool { return c.part(k) != c.part(keys[0]) }) {
			want.Status = wire.StatusBadRequest
			return want, nil, c.model
		}
		for _, cd := range req.Conds {
			if e, ok := next[cd.Key]; cd.Value == nil && ok || cd.Value != nil && (!ok || !bytes.Equal(e.v, cd.Value)) {
				want.Mismatch = cd.Key
				return want, nil, c.model
			}
		}
		want.Committed = true
		for _, o := range req.TxnOps {
			next[o.Key] = entry{v: o.Value, ttl: o.TTL > 0}
			if o.Del {
				delete(next, o.Key)
			}
		}
	}
	return want, also, next
}

// answer is a response's outcome as the model decides it: all but tokens.
func answer(r wire.Response) string {
	if r.Status != wire.StatusOK {
		return r.Status.String()
	}
	present := make([]bool, len(r.Values))
	for i, v := range r.Values {
		present[i] = v != nil
	}
	return fmt.Sprintf("%q %q present %v applied %d swapped %v committed %v mismatch %d",
		r.Value, r.Values, present, r.Applied, r.Swapped, r.Committed, r.Mismatch)
}

// mismatch is how got differs from the model's answer ("" when it does
// not). floor is each shard's bound before the request went out.
func (c *client) mismatch(req *wire.Request, kind int, got, want wire.Response, also []wire.Status, floor map[uint32]uint64) string {
	switch {
	case got.Status != want.Status && !slices.Contains(also, got.Status):
		return fmt.Sprintf("status %v (%q), want %v", got.Status, got.Msg, want.Status)
	case got.Status == want.Status && req.Op == wire.OpStats && got.Status == wire.StatusOK:
		return c.st.statsMismatch(got.Stats)
	case got.Status == want.Status && answer(got) != answer(want):
		return fmt.Sprintf("answered %s, want %s", answer(got), answer(want))
	}
	// An applied write (a missed delete is logged too) carries a token per
	// shard it touched whose log is not empty, past the floor where it
	// wrote; a volatile engine none. No token is at LSN 0.
	var wrote []uint32
	applied := got.Status == wire.StatusOK || req.Op == wire.OpDelete && got.Status == wire.StatusNotFound
	if kind == volatileStore || !mutates(req.Op) || !applied || req.Op == wire.OpTxn && !got.Committed {
		floor = nil
	}
	for i, k := range opKeys(req) {
		if _, g := c.st.shard(k); req.Op != wire.OpCas && (req.Op != wire.OpTxn || i >= len(req.Conds)) || got.Swapped {
			wrote = append(wrote, g)
		}
	}
	ok, seen := true, map[uint32]bool{}
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	for _, tok := range got.LSNs {
		pi := 0
		if c.st.clu != nil {
			pi, _, _ = c.st.clu.SplitGlobalShard(tok.Shard)
		}
		least, in := floor[tok.Shard]
		if slices.Contains(wrote, tok.Shard) {
			least++
		}
		ok = ok && in && !seen[tok.Shard] && tok.Epoch == c.st.epoch[pi] && tok.LSN >= max(least, 1)
		seen[tok.Shard] = true
	}
	// Only a shard that may still be at LSN 0 may go without its token.
	for g, least := range floor {
		ok = ok && (seen[g] || least == 0 && !slices.Contains(wrote, g))
	}
	if !ok {
		return fmt.Sprintf("tokens %+v, want one per shard of %v past LSN 0 at its epoch, past it where it wrote %v", got.LSNs, floor, wrote)
	}
	return ""
}

// statsMismatch checks a STATS document, which a client asks for last,
// against what st is and the reads it has served.
func (st *hstore) statsMismatch(doc []byte) string {
	var s statsResponse
	err := json.Unmarshal(doc, &s)
	ok := err == nil && s.Total.Gets > 0
	switch dur := st.kind == durableStore; st.kind {
	case volatileStore, durableStore:
		ok = ok && s.NumShards == 8 && s.HandleCapable && s.SeqReadAttempts > 0 && s.Total.SeqReads > 0 && s.Durable == dur && s.WALError == "" &&
			(s.SyncPolicy == "none") == dur && (s.Repl != nil && s.Repl.Shards == 8 && s.Repl.Durable) == dur && (s.Total.Checkpoints == 8) == dur
	case followerStore:
		ok = ok && s.Follower != nil && s.Follower.Primary == st.primary.wire && len(s.Follower.Shards) == 8
	case clusterStore:
		ok = ok && s.Durable && s.NumShards == 8 && s.Cluster != nil && s.Cluster.Partitions == 2
	}
	if !ok {
		return fmt.Sprintf("stats document %s (%v)", doc, err)
	}
	return ""
}

// do sends req and checks the answer. A follower refuses a write, which
// then goes to its primary; a read waits for it to reach the read's bounds,
// unless it carries the bound itself and so makes the follower wait.
func (c *client) do(req wire.Request) {
	if c.st.kind == followerStore && mutates(req.Op) {
		c.step(c.st, &req, followerStore)
		c.step(c.st.primary, &req, durableStore)
		return
	}
	c.await(&req)
	c.step(c.st, &req, c.st.kind)
}

// await waits for a follower to reach the bounds of req's keys, but for a
// bound a GET carries.
func (c *client) await(req *wire.Request) {
	for g, b := range c.st.bounds(opKeys(req)) {
		if c.st.f != nil && !(req.Op == wire.OpGet && req.MinLSN == b) && !c.st.f.WaitMinLSN(int(g), b, 10*time.Second) {
			c.fail("follower shard %d never reached LSN %d", g, b)
		}
	}
}

// step sends req to the store to, answering as kind, and adopts the model's
// next state. The model answers before the request goes out, by bounds the
// store had reached; an answer after the TTL deadline may see TTL'd keys
// gone; a follower told 409 for a token it was handed retries.
func (c *client) step(to *hstore, req *wire.Request, kind int) {
	floor := c.st.bounds(opKeys(req))
	want, also, next := c.expect(req, kind, false)
	wantX, alsoX, nextX := c.expect(req, kind, true)
	for sent := time.Now(); !c.failed; time.Sleep(time.Millisecond) {
		got, err := c.exchange(to, req)
		if err != nil {
			c.fail("%s %v: %v", req.Op, opKeys(req), err)
			return
		}
		msg := c.mismatch(req, kind, got, want, also, floor)
		if msg != "" && !c.deadline.IsZero() && time.Now().After(c.deadline) && c.mismatch(req, kind, got, wantX, alsoX, floor) == "" {
			msg, want, next = "", wantX, nextX
		}
		if msg != "" && kind == followerStore && got.Status == wire.StatusConflict && time.Since(sent) < 10*time.Second {
			continue
		}
		if msg != "" {
			c.fail("%s %v token (%d, %d): %s", req.Op, opKeys(req), req.Epoch, req.MinLSN, msg)
			return
		}
		if got.Status == want.Status {
			c.model = next
		}
		c.record(req, got)
		return
	}
}

// record takes a write's tokens into the bounds and its keys' entries.
func (c *client) record(req *wire.Request, got wire.Response) {
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	for _, tok := range got.LSNs {
		c.st.bound[tok.Shard] = max(c.st.bound[tok.Shard], tok.LSN)
		for _, k := range opKeys(req) {
			if e, ok := c.model[k]; ok && got.Status == wire.StatusOK {
				if _, g := c.st.shard(k); g == tok.Shard {
					e.tok = tok
					c.model[k] = e
				}
			}
		}
	}
}

// exchange sends req to st through the client's front end.
func (c *client) exchange(st *hstore, req *wire.Request) (wire.Response, error) {
	if c.fr == "HTTP" {
		return c.viaHTTP(st, req)
	}
	if c.wcs[st.wire] == nil {
		wc, err := wire.Dial(st.wire, 5*time.Second)
		if err != nil {
			return wire.Response{}, err
		}
		c.wcs[st.wire] = wc
	}
	return c.wcs[st.wire].Do(req)
}

// httpStatuses is the test's own reading of the front end's codes, written
// out so a wrong entry in the server's table fails against it.
var httpStatuses = map[int]wire.Status{
	200: wire.StatusOK, 204: wire.StatusOK, 400: wire.StatusBadRequest, 403: wire.StatusReadOnly,
	404: wire.StatusNotFound, 409: wire.StatusConflict, 413: wire.StatusTooLarge, 503: wire.StatusUnavailable,
}

// httpSpell is req as the HTTP front end's request for the same operation;
// MDELETE has none and is not drawn for HTTP. A PUT of an odd key also
// sends ?async=1, which an old client sends and the server ignores.
func httpSpell(req *wire.Request) (method, path string, body []byte) {
	q, js := url.Values{}, func(v any) []byte { b, _ := json.Marshal(v); return b }
	if req.MinLSN != 0 {
		q.Set("min_lsn", fmt.Sprint(req.MinLSN))
		q.Set("epoch", fmt.Sprint(req.Epoch))
	}
	ttl := func(d time.Duration) string {
		if d == 0 {
			return ""
		}
		return d.String()
	}
	switch req.Op {
	case wire.OpGet:
		return "GET", fmt.Sprintf("/kv/%d?%s", req.Key, q.Encode()), nil
	case wire.OpMGet:
		keys := make([]string, len(req.Keys))
		for i, k := range req.Keys {
			keys[i] = strconv.FormatUint(k, 10)
		}
		q.Set("keys", strings.Join(keys, ","))
		return "GET", "/mget?" + q.Encode(), nil
	case wire.OpPut:
		if q.Set("ttl", ttl(req.TTL)); req.Key%2 == 1 {
			q.Set("async", "1")
		}
		return "PUT", fmt.Sprintf("/kv/%d?%s", req.Key, q.Encode()), req.Value
	case wire.OpDelete:
		return "DELETE", fmt.Sprintf("/kv/%d", req.Key), nil
	case wire.OpMPut:
		mr := mputRequest{TTL: ttl(req.TTL)}
		for i, k := range req.Keys {
			mr.Entries = append(mr.Entries, mputEntry{Key: k, Value: req.Values[i]})
		}
		return "POST", "/mput", js(mr)
	case wire.OpCas:
		return "POST", "/cas", js(casRequest{Key: req.Key, Old: req.Old, New: req.New})
	case wire.OpTxn:
		tr := txnRequest{Ops: []txnOp{}}
		for _, cd := range req.Conds {
			tr.If = append(tr.If, txnCond{Key: cd.Key, Value: cd.Value})
		}
		for _, o := range req.TxnOps {
			op := txnOp{Op: "put", Key: o.Key, Value: o.Value, TTL: ttl(o.TTL)}
			if o.Del {
				op = txnOp{Op: "delete", Key: o.Key}
			}
			tr.Ops = append(tr.Ops, op)
		}
		return "POST", "/txn", js(tr)
	}
	return "GET", "/stats", nil
}

// viaHTTP runs req over HTTP and reads the reply back as the wire response
// it stands for: a success by its exact code, the payload, and the tokens
// from the X-Commit-* headers or the body's "lsns" or "commits".
func (c *client) viaHTTP(st *hstore, req *wire.Request) (wire.Response, error) {
	method, path, body := httpSpell(req)
	hresp, out, err := c.httpDo(method, st.http+path, body)
	if err != nil {
		return wire.Response{}, err
	}
	status, known := httpStatuses[hresp.StatusCode]
	if success := map[wire.Op]int{wire.OpPut: 204, wire.OpDelete: 204}[req.Op]; !known || status == wire.StatusOK && hresp.StatusCode != max(success, 200) {
		return wire.Response{}, fmt.Errorf("HTTP %d %s", hresp.StatusCode, out)
	}
	resp := wire.Response{Op: req.Op, Status: status}
	if lsn := hresp.Header.Get("X-Commit-Lsn"); lsn != "" {
		var tok wire.ShardLSN
		fmt.Sscan(hresp.Header.Get("X-Commit-Shard"), &tok.Shard)
		fmt.Sscan(lsn, &tok.LSN)
		fmt.Sscan(hresp.Header.Get("X-Commit-Epoch"), &tok.Epoch) // absent on a single engine
		resp.LSNs = append(resp.LSNs, tok)
	}
	switch {
	case status != wire.StatusOK:
		resp.Msg = string(out)
	case req.Op == wire.OpGet:
		resp.Value = out
	case req.Op == wire.OpStats:
		resp.Stats = out
	case req.Op != wire.OpPut && req.Op != wire.OpDelete:
		var doc struct {
			mgetResponse
			mputResponse
			casResponse
			Committed bool    `json:"committed"`
			Mismatch  *uint64 `json:"mismatch"`
		}
		if err := json.Unmarshal(out, &doc); err != nil {
			return resp, fmt.Errorf("%s reply %s: %v", req.Op, out, err)
		}
		resp.Values, resp.Applied, resp.Swapped, resp.Committed = doc.Values, uint32(doc.Applied), doc.Swapped, doc.Committed
		if doc.Mismatch != nil {
			resp.Mismatch = *doc.Mismatch
		}
		for sh, lsn := range doc.LSNs {
			tok := wire.ShardLSN{LSN: lsn}
			fmt.Sscan(sh, &tok.Shard)
			resp.LSNs = append(resp.LSNs, tok)
		}
		for _, cm := range doc.Commits {
			resp.LSNs = append(resp.LSNs, wire.ShardLSN{Shard: cm.Shard, LSN: cm.LSN, Epoch: cm.Epoch})
		}
	}
	return resp, nil
}

func (c *client) httpDo(method, url string, body []byte) (*http.Response, []byte, error) {
	hreq, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp, raw, err
}

// sendRaw sends httpOnly row i and checks the store's status.
func (c *client) sendRaw(i int) {
	row, k := httpOnly[i], strconv.FormatUint(c.key(), 10)
	body := []byte(strings.ReplaceAll(row.body, "{k}", k))
	if row.body == "huge" {
		body = hugeBody()
	}
	resp, out, err := c.httpDo(row.method, c.st.http+strings.ReplaceAll(row.path, "{k}", k), body)
	if err != nil || resp.StatusCode != row.want[c.st.kind] {
		c.fail("%s %s = %v %q (%v), want %d", row.method, row.path, resp, out, err, row.want[c.st.kind])
	}
}

// run sends n ops: draws from the suite's kinds, none short of the TTL
// deadline, and when edges is set the edge script, shuffled in. The script's
// steps over a cap (a value or a body) go last: they write nothing, and on
// two CPUs their megabytes crowded the draws out of the TTL window.
func (c *client) run(n int, edges bool) {
	var script, last []func()
	add := func(overCap bool, step func()) {
		if overCap {
			last = append(last, step)
		} else {
			script = append(script, step)
		}
	}
	for _, req := range c.edges() {
		if edges && c.cfg.has(strings.ToLower(req.Op.String())) {
			add(capValues(&req) != nil, func() { c.do(req) })
		}
	}
	for i, row := range httpOnly {
		if edges && c.fr == "HTTP" && c.cfg.has(row.kind) && row.want[c.st.kind] != 0 {
			add(row.kind == "body", func() { c.sendRaw(i) })
		}
	}
	var kinds []int // opTable's rows, each repeated by its weight
	for i, k := range opTable {
		if c.cfg.has(k.name) && (c.fr == "wire" || k.name != "mdelete") {
			for range k.weight {
				kinds = append(kinds, i)
			}
		}
	}
	// The script shuffled among as many draws, draws alone, then last[i] as
	// -1-i; below len(script) a script step. Only a draw is ever skipped.
	plan, skipped := c.rng.Perm(2*len(script)), 0
	for len(plan)+len(last) < n {
		plan = append(plan, len(script))
	}
	for i := range last {
		plan = append(plan, -1-i)
	}
	for _, p := range plan {
		switch {
		case c.failed:
			return
		case p < 0:
			last[-1-p]()
		case p < len(script):
			script[p]()
		case !c.deadline.IsZero() && time.Until(c.deadline) < c.cfg.ttl/4:
			skipped++
		default:
			c.do(opTable[kinds[c.rng.IntN(len(kinds))]].draw(c))
		}
	}
	if skipped > 0 {
		c.t.Logf("%s: skipped %d draws short of the TTL deadline", c.name, skipped)
	}
}

// settle reads the client's range back after the TTL deadline: each key
// with its last write's token, then all at once, then the store's STATS.
func (c *client) settle() {
	all := make([]uint64, keySpan)
	for i := range all {
		all[i] = c.lo + uint64(i)
	}
	// A TTL'd write's key outlives the deadline by the time it took to apply,
	// and on a replica by the time its record took to decode, once it has one.
	c.await(&wire.Request{Op: wire.OpMGet, Keys: all})
	for k, e := range c.model {
		for end := time.Now().Add(time.Second); e.ttl && time.Now().Before(end); time.Sleep(2 * time.Millisecond) {
			if got, err := c.exchange(c.st, &wire.Request{Op: wire.OpGet, Key: k}); err != nil || got.Status != wire.StatusOK {
				break
			}
		}
		if e.ttl {
			delete(c.model, k)
		}
	}
	for _, k := range all {
		tok := c.model[k].tok
		c.do(wire.Request{Op: wire.OpGet, Key: k, MinLSN: tok.LSN, Epoch: tok.Epoch})
	}
	c.do(wire.Request{Op: wire.OpMGet, Keys: all})
	c.do(wire.Request{Op: wire.OpStats})
}

// runSuite runs the suite named after t (see suites).
func runSuite(t *testing.T) {
	cfg, ok := suites[t.Name()]
	if !ok {
		t.Fatalf("no suite %s", t.Name())
	}
	if !cfg.alone {
		t.Parallel()
	}
	scfg := Config{ReapInterval: 10 * time.Millisecond, ReapBudget: 64}
	stores := make([]*hstore, len(cfg.stores))
	for i, kind := range cfg.stores {
		stores[i] = newHStore(t, kind, scfg)
	}
	h := fnv.New64a()
	h.Write([]byte(t.Name()))
	seed, deadline := h.Sum64(), time.Now().Add(cfg.ttl)
	var all []*client
	phase := func(perCell, n int, edges bool) {
		var wg sync.WaitGroup
		for _, st := range stores {
			for _, fr := range cfg.fronts {
				for range perCell {
					i := len(all)
					c := &client{t: t, cfg: &cfg, st: st, fr: fr, rng: rand.New(rand.NewPCG(seed, uint64(i))),
						name: fmt.Sprintf("%s × %s, client %d (seed %d)", storeNames[st.kind], fr, i, seed),
						lo:   uint64(i+1) << 20, model: map[uint64]entry{}, wcs: map[string]*wire.Conn{},
						hc: &http.Client{Transport: &http.Transport{}}}
					if edges && cfg.ttl > 0 {
						c.deadline = deadline
					}
					all = append(all, c)
					wg.Add(1)
					go func() { defer wg.Done(); c.run(n, edges) }()
				}
			}
		}
		wg.Wait()
	}
	defer func() { hangUp(all) }()
	phase(1, cfg.seq, true)
	for _, st := range stores {
		if st.clu != nil {
			st.failover(t, 1)
		}
		if st.kind == durableStore {
			st.restart(t, scfg, all)
		}
	}
	phase(cfg.conc, cfg.seq/2, false)
	time.Sleep(time.Until(deadline))
	for _, c := range all {
		c.settle()
	}
	for _, st := range stores {
		if !t.Failed() {
			st.settled(t, all)
		}
	}
}

// hangUp closes every client's connections: a closing server waits up to
// DefaultDrainTimeout for each wire connection still open.
func hangUp(all []*client) {
	for _, c := range all {
		c.hc.CloseIdleConnections()
		for _, wc := range c.wcs {
			wc.Close()
		}
		clear(c.wcs)
	}
}

// failover moves partition pi to its caught-up follower through POST
// /failover/{pi}: the bounds then are the cut the old epoch is judged by.
func (st *hstore) failover(t *testing.T, pi int) {
	if err := st.clu.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	st.cut, st.epoch[pi] = maps.Clone(st.bound), st.epoch[pi]+1
	st.mu.Unlock()
	var fo map[string]uint64
	resp, err := http.Post(st.http+"/failover/"+strconv.Itoa(pi), "", nil)
	if err == nil {
		defer resp.Body.Close()
		err = json.NewDecoder(resp.Body).Decode(&fo)
	}
	if err != nil || fo["epoch"] != st.epoch[pi] {
		t.Fatalf("failover %d = %v (%v), want epoch %d", pi, fo, err, st.epoch[pi])
	}
}

// settled checks that the reaper left only what the models hold, and that
// a fenced cluster partition refuses writes as unavailable.
func (st *hstore) settled(t *testing.T, all []*client) {
	live := 0
	for _, c := range all {
		if c.st == st {
			live += len(c.model)
		}
	}
	for end := time.Now().Add(2 * time.Second); st.clu == nil && st.eng.Len() != live; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(end) {
			t.Errorf("%s: the reaper left %d resident entries, the models hold %d", storeNames[st.kind], st.eng.Len(), live)
			break
		}
	}
	if st.clu == nil {
		return
	}
	st.clu.Member(0).Fence()
	for _, c := range all {
		if c.st != st {
			continue
		}
		k := c.lo
		for c.part(k) != 0 {
			k++
		}
		req := wire.Request{Op: wire.OpPut, Key: k, Value: []byte("fenced")}
		if got, err := c.exchange(st, &req); err != nil || got.Status != wire.StatusUnavailable {
			t.Errorf("%s: a put on a fenced partition = %v (%v), want %v", c.name, got.Status, err, wire.StatusUnavailable)
		}
	}
}
