package kvserv

// The adjudication matrix: one op script, written as transport-neutral
// wire.Requests, run against every store (volatile engine, durable engine,
// follower replica, cluster) through both front-ends. Each row pins the
// status every cell must answer, so a status decided differently by one
// front-end or one store is a one-line failure naming the cell.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
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

// The cluster-era names txn_test.go decodes /cas and /txn replies with: the
// replies are one type per route now, whichever store answers.
type (
	clusterCasResponse = casResponse
	clusterTxnResponse = txnResponse
)

// matrixStore is one column: a server over one kind of store, reachable
// through both front-ends.
type matrixStore struct {
	name string
	base string     // HTTP base URL
	wc   *wire.Conn // wire connection
}

// serveBoth serves srv on two fresh loopback listeners.
func serveBoth(t *testing.T, name string, srv *Server) matrixStore {
	t.Helper()
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(hl)
	go srv.ServeWire(wl)
	t.Cleanup(func() { srv.Close() })
	wc, err := wire.Dial(wl.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wc.Close() })
	return matrixStore{name: name, base: "http://" + hl.Addr().String(), wc: wc}
}

func mkMatrixLock() rwl.RWLock { return core.New(new(stdrw.Lock)) }

func durableEngine(t *testing.T) *kvs.Sharded {
	t.Helper()
	e, err := kvs.OpenSharded(t.TempDir(), 8, mkMatrixLock, kvs.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// Column indices of every want row.
const (
	volatileStore = iota
	durableStore
	followerStore
	clusterStore
	numStores
)

// matrixStores builds the four columns, each holding key 1 = "v" (the
// follower's arrives through replication) and nothing else.
func matrixStores(t *testing.T) (stores [numStores]matrixStore, primary *kvs.Sharded, clu *cluster.Cluster) {
	t.Helper()
	cfg := Config{ReapInterval: -1, MinLSNWait: 30 * time.Millisecond}

	vol, err := kvs.NewSharded(8, mkMatrixLock)
	if err != nil {
		t.Fatal(err)
	}
	vol.Put(1, []byte("v"))
	stores[volatileStore] = serveBoth(t, "engine-volatile", New(vol, cfg))

	dur := durableEngine(t)
	dur.Put(1, []byte("v"))
	stores[durableStore] = serveBoth(t, "engine-durable", New(dur, cfg))

	primary = durableEngine(t)
	primary.Put(1, []byte("v"))
	f, err := repl.Open(repl.Config{
		Primary:       startServerWith(t, primary, cfg),
		MkLock:        mkMatrixLock,
		RetryInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if err := f.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	stores[followerStore] = serveBoth(t, "follower", NewFollower(f, cfg))

	clu, err = cluster.Open(cluster.Config{Partitions: 2, Shards: 4, Dir: t.TempDir(), Policy: kvs.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { clu.Close() })
	if _, err := clu.Put(1, []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	stores[clusterStore] = serveBoth(t, "cluster", NewClusterServer(clu, cfg))
	return stores, primary, clu
}

// httpCode is the test's own status table — written out here rather than
// read from the server's, so a wrong entry there fails against the rows.
func httpCode(st wire.Status) int {
	switch st {
	case wire.StatusOK:
		return 200
	case wire.StatusNotFound:
		return 404
	case wire.StatusBadRequest:
		return 400
	case wire.StatusReadOnly:
		return 403
	case wire.StatusConflict:
		return 409
	case wire.StatusTooLarge:
		return 413
	case wire.StatusUnavailable:
		return 503
	}
	return -int(st)
}

// viaWire runs req over the wire front-end.
func (ms matrixStore) viaWire(t *testing.T, req wire.Request) (int, []wire.ShardLSN) {
	t.Helper()
	resp, err := ms.wc.Do(&req)
	if err != nil {
		t.Fatalf("%s wire %s: %v", ms.name, req.Op, err)
	}
	return httpCode(resp.Status), append([]wire.ShardLSN(nil), resp.LSNs...)
}

// viaHTTP spells req as the HTTP front-end's request for the same
// operation, and reads the reply's tokens back out of the headers or the
// body's "lsns"/"commits". Every 2xx reports as 200.
func (ms matrixStore) viaHTTP(t *testing.T, req wire.Request) (int, []wire.ShardLSN) {
	t.Helper()
	method, path, body := http.MethodPost, "", []byte(nil)
	token := ""
	if req.MinLSN != 0 {
		token = fmt.Sprintf("min_lsn=%d", req.MinLSN)
		if req.Epoch != 0 {
			token += fmt.Sprintf("&epoch=%d", req.Epoch)
		}
	}
	switch req.Op {
	case wire.OpGet:
		method, path = http.MethodGet, fmt.Sprintf("/kv/%d?%s", req.Key, token)
	case wire.OpPut:
		method, path, body = http.MethodPut, fmt.Sprintf("/kv/%d?", req.Key), req.Value
		if req.TTL > 0 {
			path += "ttl=" + req.TTL.String()
		}
	case wire.OpDelete:
		method, path = http.MethodDelete, fmt.Sprintf("/kv/%d", req.Key)
	case wire.OpMGet:
		keys := make([]string, len(req.Keys))
		for i, k := range req.Keys {
			keys[i] = strconv.FormatUint(k, 10)
		}
		method, path = http.MethodGet, "/mget?keys="+strings.Join(keys, ",")+"&"+token
	case wire.OpMPut:
		var mr mputRequest
		for i, k := range req.Keys {
			mr.Entries = append(mr.Entries, mputEntry{Key: k, Value: req.Values[i]})
		}
		path, body = "/mput", mustJSON(t, mr)
	case wire.OpCas:
		path, body = "/cas", mustJSON(t, casRequest{Key: req.Key, Old: req.Old, New: req.New})
	case wire.OpTxn:
		tr := txnRequest{Ops: []txnOp{}}
		for _, c := range req.Conds {
			tr.If = append(tr.If, txnCond{Key: c.Key, Value: c.Value})
		}
		for _, o := range req.TxnOps {
			op := txnOp{Op: "put", Key: o.Key, Value: o.Value}
			if o.Del {
				op = txnOp{Op: "delete", Key: o.Key}
			}
			tr.Ops = append(tr.Ops, op)
		}
		path, body = "/txn", mustJSON(t, tr)
	default:
		t.Fatalf("no HTTP spelling for %s", req.Op)
	}
	return ms.httpDo(t, method, path, body)
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func (ms matrixStore) httpDo(t *testing.T, method, path string, body []byte) (int, []wire.ShardLSN) {
	t.Helper()
	hreq, err := http.NewRequest(method, ms.base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("%s %s %s: %v", ms.name, method, path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	code := resp.StatusCode
	if code/100 == 2 {
		code = 200
	}
	var toks []wire.ShardLSN
	if lsn := resp.Header.Get("X-Commit-Lsn"); lsn != "" {
		var tok wire.ShardLSN
		fmt.Sscan(resp.Header.Get("X-Commit-Shard"), &tok.Shard)
		fmt.Sscan(lsn, &tok.LSN)
		fmt.Sscan(resp.Header.Get("X-Commit-Epoch"), &tok.Epoch) // absent = 0
		toks = append(toks, tok)
	}
	var bt batchTokens
	if json.Unmarshal(raw, &bt) == nil {
		for sh, lsn := range bt.LSNs {
			var tok wire.ShardLSN
			fmt.Sscan(sh, &tok.Shard)
			tok.LSN = lsn
			toks = append(toks, tok)
		}
		for _, c := range bt.Commits {
			toks = append(toks, wire.ShardLSN{Shard: c.Shard, LSN: c.LSN, Epoch: c.Epoch})
		}
	}
	return code, toks
}

func TestAdjudicationMatrix(t *testing.T) {
	stores, primary, clu := matrixStores(t)
	big := make([]byte, MaxValueBytes+1)
	v := []byte("v")

	// Keys: 1 holds "v" everywhere, 2 never exists, the rest are scratch.
	// want is indexed by the store constants; every 2xx is 200.
	rows := []struct {
		name string
		req  wire.Request
		want [numStores]int
	}{
		{"get hit", wire.Request{Op: wire.OpGet, Key: 1}, [...]int{200, 200, 200, 200}},
		{"get miss", wire.Request{Op: wire.OpGet, Key: 2}, [...]int{404, 404, 404, 404}},
		{"mget", wire.Request{Op: wire.OpMGet, Keys: []uint64{1, 2}}, [...]int{200, 200, 200, 200}},
		{"put", wire.Request{Op: wire.OpPut, Key: 3, Value: v}, [...]int{200, 200, 403, 200}},
		{"put ttl", wire.Request{Op: wire.OpPut, Key: 7, Value: v, TTL: time.Minute}, [...]int{200, 200, 403, 200}},
		{"put oversize value", wire.Request{Op: wire.OpPut, Key: 3, Value: big}, [...]int{413, 413, 403, 413}},
		{"delete hit", wire.Request{Op: wire.OpDelete, Key: 3}, [...]int{200, 200, 403, 200}},
		{"delete miss", wire.Request{Op: wire.OpDelete, Key: 2}, [...]int{404, 404, 403, 404}},
		{"mput", wire.Request{Op: wire.OpMPut, Keys: []uint64{4, 5}, Values: [][]byte{v, v}}, [...]int{200, 200, 403, 200}},
		{"mput oversize entry", wire.Request{Op: wire.OpMPut, Keys: []uint64{4, 5}, Values: [][]byte{v, big}}, [...]int{413, 413, 403, 413}},
		{"cas install", wire.Request{Op: wire.OpCas, Key: 6, New: []byte("a")}, [...]int{200, 200, 403, 200}},
		{"cas oversize", wire.Request{Op: wire.OpCas, Key: 6, Old: big, New: v}, [...]int{413, 413, 403, 413}},
		{"txn", wire.Request{Op: wire.OpTxn,
			Conds:  []wire.TxnCond{{Key: 6, Value: []byte("a")}},
			TxnOps: []wire.TxnOp{{Key: 6, Value: []byte("a")}}}, [...]int{200, 200, 403, 200}},
		{"txn oversize condition", wire.Request{Op: wire.OpTxn,
			Conds:  []wire.TxnCond{{Key: 6, Value: big}},
			TxnOps: []wire.TxnOp{{Key: 6, Value: v}}}, [...]int{413, 413, 403, 413}},
		{"txn oversize op", wire.Request{Op: wire.OpTxn, TxnOps: []wire.TxnOp{{Key: 6, Value: big}}}, [...]int{413, 413, 403, 413}},
		{"txn without keys", wire.Request{Op: wire.OpTxn}, [...]int{400, 400, 403, 400}},
		// Tokens the store cannot honor. A volatile engine has no LSNs at all
		// (400); a log that has not reached the LSN is a conflict (409); a
		// cluster token must carry an epoch this cluster issued (400).
		{"token ahead of the log", wire.Request{Op: wire.OpGet, Key: 1, MinLSN: 1 << 40, Epoch: 1}, [...]int{400, 409, 409, 409}},
		{"mget token ahead of the log", wire.Request{Op: wire.OpMGet, Keys: []uint64{1}, MinLSN: 1 << 40, Epoch: 1}, [...]int{400, 409, 409, 409}},
		{"token without epoch", wire.Request{Op: wire.OpGet, Key: 1, MinLSN: 1}, [...]int{400, 200, 200, 400}},
		{"token from a future epoch", wire.Request{Op: wire.OpGet, Key: 1, MinLSN: 1, Epoch: 99}, [...]int{400, 200, 200, 400}},
	}
	// The script is stateful ("delete hit" needs "put"), so each front-end
	// runs it whole, in order.
	fronts := []struct {
		name string
		do   func(matrixStore, *testing.T, wire.Request) (int, []wire.ShardLSN)
	}{{"HTTP", matrixStore.viaHTTP}, {"wire", matrixStore.viaWire}}
	for _, f := range fronts {
		for _, row := range rows {
			for i, ms := range stores {
				if code, _ := f.do(ms, t, row.req); code != row.want[i] {
					t.Errorf("%s × %s: %q = %d, want %d", ms.name, f.name, row.name, code, row.want[i])
				}
			}
		}
	}

	// HTTP-only: a JSON body over MaxMPutBodyBytes is 413 on every route that
	// takes one (a follower refuses before reading it), and /checkpoint.
	huge := append([]byte("{"), bytes.Repeat([]byte(" "), MaxMPutBodyBytes)...)
	for i, ms := range stores {
		want := [...]int{413, 413, 403, 413}[i]
		for _, path := range []string{"/mput", "/cas", "/txn"} {
			if code, _ := ms.httpDo(t, http.MethodPost, path, huge); code != want {
				t.Errorf("%s × HTTP: oversize %s body = %d, want %d", ms.name, path, code, want)
			}
		}
		want = [...]int{409, 200, 403, 200}[i]
		if code, _ := ms.httpDo(t, http.MethodPost, "/checkpoint", nil); code != want {
			t.Errorf("%s × HTTP: checkpoint = %d, want %d", ms.name, code, want)
		}
	}

	// Tokens round-trip: what a write returns, the matching read on the same
	// store accepts — through either front-end, and across them. A volatile
	// engine stamps none; a follower honors its primary's.
	writes := []wire.Request{
		{Op: wire.OpPut, Key: 10, Value: v},
		{Op: wire.OpDelete, Key: 10},
		{Op: wire.OpMPut, Keys: []uint64{10}, Values: [][]byte{v}},
		{Op: wire.OpCas, Key: 10, Old: v, New: []byte("w")},
		{Op: wire.OpTxn, TxnOps: []wire.TxnOp{{Key: 10, Value: v}}},
	}
	for _, si := range []int{volatileStore, durableStore, clusterStore} {
		ms := stores[si]
		for _, wf := range fronts {
			for _, wr := range writes {
				code, toks := wf.do(ms, t, wr)
				if code != 200 || (len(toks) != 1) != (si == volatileStore) {
					t.Errorf("%s × %s: %s = %d with tokens %v", ms.name, wf.name, wr.Op, code, toks)
					continue
				}
				for _, tok := range toks {
					if (tok.Epoch != 0) != (si == clusterStore) {
						t.Errorf("%s × %s: %s token %+v: epoch is nonzero exactly on a cluster", ms.name, wf.name, wr.Op, tok)
					}
					for _, rf := range fronts {
						read := wire.Request{Op: wire.OpMGet, Keys: []uint64{10}, MinLSN: tok.LSN, Epoch: tok.Epoch}
						if code, _ := rf.do(ms, t, read); code != 200 {
							t.Errorf("%s: %s token %+v from %s read back over %s = %d", ms.name, wr.Op, tok, wf.name, rf.name, code)
						}
					}
				}
			}
		}
	}
	primary.Put(11, v)
	ptok := wire.ShardLSN{LSN: primary.ShardLSN(primary.ShardOf(11))}
	for _, rf := range fronts {
		// The 30ms MinLSNWait is the replication budget here; retry like a
		// client told 409 would.
		read := wire.Request{Op: wire.OpGet, Key: 11, MinLSN: ptok.LSN}
		code := 0
		for deadline := time.Now().Add(10 * time.Second); code != 200 && time.Now().Before(deadline); {
			code, _ = rf.do(stores[followerStore], t, read)
		}
		if code != 200 {
			t.Errorf("follower × %s: primary's token %+v = %d", rf.name, ptok, code)
		}
	}

	// A write racing a failover: the partition's primary is fenced, nothing
	// promoted yet. Last, because it leaves the partition unwritable.
	clu.Member(clu.Partition(1)).Fence()
	for _, rf := range fronts {
		if code, _ := rf.do(stores[clusterStore], t, wire.Request{Op: wire.OpPut, Key: 1, Value: v}); code != 503 {
			t.Errorf("cluster × %s: put on a fenced partition = %d, want 503", rf.name, code)
		}
	}
}

// The wire GET path allocates nothing per request, through the executor,
// for both stores: the value lands in the connection's scratch and the
// response encodes into a reused buffer.
func TestWireGetZeroAlloc(t *testing.T) {
	clu, err := cluster.Open(cluster.Config{Partitions: 2, Shards: 4, Dir: t.TempDir(), Policy: kvs.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()
	if _, err := clu.Put(42, make([]byte, 128), 0); err != nil {
		t.Fatal(err)
	}
	for name, srv := range map[string]*Server{
		"engine":  New(benchEngine(t), Config{ReapInterval: -1}),
		"cluster": NewClusterServer(clu, Config{ReapInterval: -1}),
	} {
		reader, sc := rwl.NewReader(), new(scratch)
		req := wire.Request{Op: wire.OpGet, ID: 1, Key: 42}
		var out []byte
		get := func() {
			resp := srv.execute(reader, &req, sc)
			out = wire.AppendResponse(out[:0], &resp)
		}
		get() // size the buffers
		if len(out) < 128 {
			t.Fatalf("%s: GET returned no value", name)
		}
		if n := testing.AllocsPerRun(1000, get); n != 0 {
			t.Errorf("%s store: wire GET allocates %.1f times per request, want 0", name, n)
		}
	}
}

// A 16-key wire MGET costs a handful of allocations, not one per key: each
// engine call copies its values into one arena. The engine store's ceiling
// is 4; the cluster store, which splits the batch per partition and scatters
// the values back, must stay below the 32 it cost when every value was its
// own allocation.
func TestWireMGetAllocs(t *testing.T) {
	clu, err := cluster.Open(cluster.Config{Partitions: 2, Shards: 4, Dir: t.TempDir(), Policy: kvs.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()
	keys := make([]uint64, 16)
	for i := range keys {
		keys[i] = uint64(i)
		if _, err := clu.Put(keys[i], make([]byte, 128), 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		srv  *Server
		max  float64
	}{
		{"engine", New(benchEngine(t), Config{ReapInterval: -1}), 4},
		{"cluster", NewClusterServer(clu, Config{ReapInterval: -1}), 31},
	} {
		reader, sc := rwl.NewReader(), new(scratch)
		req := wire.Request{Op: wire.OpMGet, ID: 1, Keys: keys}
		var out []byte
		mget := func() {
			resp := c.srv.execute(reader, &req, sc)
			out = wire.AppendResponse(out[:0], &resp)
		}
		mget() // size the buffers
		if len(out) < 16*128 {
			t.Fatalf("%s: MGET returned %d bytes, want all 16 values", c.name, len(out))
		}
		if n := testing.AllocsPerRun(1000, mget); n > c.max {
			t.Errorf("%s store: 16-key wire MGET allocates %.1f times per request, want at most %.0f", c.name, n, c.max)
		}
	}
}
