package kvserv

// The suites of the front-end harness (harness_test.go), and the serving
// allocation pins. The adjudication matrix is the whole op table over every
// store through both front ends, in sequence and with concurrent clients,
// with TTLs; each other suite narrows it to the stores, front ends and ops
// its test's name says.

import (
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/cluster"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/wire"
)

var (
	overHTTP, overWire                = []string{"HTTP"}, []string{"wire"}
	onVolatile, onDurable, onFollower = []int{volatileStore}, []int{durableStore}, []int{followerStore}
	onCluster, onEngines              = []int{clusterStore}, []int{volatileStore, durableStore}
	casTxn, ttlShort                  = []string{"cas", "txn", "get", "put", "delete"}, 150 * time.Millisecond
	everyStore, bothFronts            = []int{volatileStore, durableStore, followerStore, clusterStore}, []string{"HTTP", "wire"}
)

// suites is each end-to-end test's run of the harness, by the test's name.
var suites = map[string]runCfg{
	"TestAdjudicationMatrix": {stores: everyStore, fronts: bothFronts, seq: 150, conc: 3, ttl: 400 * time.Millisecond, alone: true},

	// HTTP on one engine: keep-alive connections each reading through one
	// pinned handle; TTLs and the reaper; ?async=1 (an old client's) ignored
	// and /flush unmounted; a restart losing nothing acknowledged; bad TTLs 400.
	"TestServerEndToEnd":                    {stores: onVolatile, fronts: overHTTP, ops: []string{"get", "mget", "put", "delete", "mput"}, seq: 80},
	"TestServerReusesConnectionHandle":      {stores: onVolatile, fronts: overHTTP, ops: []string{"get", "mget", "put"}, seq: 60, conc: 4},
	"TestServerTTLAndReaper":                {stores: onEngines, fronts: overHTTP, ops: []string{"get", "put", "delete"}, seq: 60, ttl: ttlShort},
	"TestServerMPutTTL":                     {stores: onVolatile, fronts: overHTTP, ops: []string{"mput", "mget", "get"}, seq: 40, ttl: ttlShort},
	"TestServerAsyncPutAndFlush":            {stores: onDurable, fronts: overHTTP, ops: []string{"put", "get", "flush"}, seq: 40},
	"TestServerDurableCheckpointAndRestart": {stores: onDurable, fronts: overHTTP, ops: []string{"put", "mput", "delete", "get", "mget", "checkpoint"}, seq: 60, conc: 2, ttl: ttlShort},
	"TestServerCheckpointVolatile":          {stores: onEngines, fronts: overHTTP, ops: []string{"checkpoint", "put", "get"}, seq: 30},
	"TestServerTTLRejectsNonPositive":       {stores: onVolatile, fronts: overHTTP, ops: []string{"put", "mput", "txn", "get"}, seq: 40},

	// CAS and TXN through both front ends, on an engine and on a cluster,
	// where a transaction spanning partitions is 400.
	"TestServerCasEndpoint":      {stores: onDurable, fronts: overHTTP, ops: []string{"cas", "get", "put", "delete"}, seq: 50},
	"TestServerTxnEndpoint":      {stores: onDurable, fronts: overHTTP, ops: []string{"txn", "get", "put", "delete"}, seq: 60, ttl: ttlShort},
	"TestWireCasTxn":             {stores: onVolatile, fronts: overWire, ops: casTxn, seq: 60},
	"TestClusterCasTxnEndpoints": {stores: onCluster, fronts: overHTTP, ops: casTxn, seq: 60},
	"TestClusterWireCasTxn":      {stores: onCluster, fronts: overWire, ops: casTxn, seq: 60},

	// Cluster tokens carry epochs, older ones honored after POST /failover; a
	// fenced primary is 503. The 16 MiB bodies are the matrix's alone.
	"TestClusterHTTPEndToEnd": {stores: onCluster, fronts: overHTTP, ops: []string{"get", "mget", "put", "delete", "mput", "cas", "txn", "flush", "checkpoint", "repl", "failover"}, seq: 80, conc: 2},
	"TestClusterWireEndToEnd": {stores: onCluster, fronts: overWire, seq: 80, conc: 2},

	// The wire surface, its tokens and caps (TestWireManyConnections, in
	// wire_test.go, is its thousand connections at once).
	"TestWireCRUD":           {stores: onVolatile, fronts: overWire, ops: []string{"get", "mget", "put", "delete", "mput", "mdelete"}, seq: 80, ttl: ttlShort},
	"TestWireMinLSNPrimary":  {stores: onDurable, fronts: overWire, ops: []string{"put", "mput", "get", "mget"}, seq: 60},
	"TestWireMinLSNVolatile": {stores: onVolatile, fronts: overWire, ops: []string{"put", "get", "mget"}, seq: 40},
	"TestWireValueCaps":      {stores: onVolatile, fronts: overWire, ops: []string{"put", "mput", "cas", "txn"}, seq: 20},

	// A follower serves reads, waiting for a token or answering 409, and
	// refuses writes with 403; a volatile server has no replication at all.
	"TestReplE2EPrimaryAndFollowerServers": {stores: onFollower, fronts: overHTTP, seq: 80},
	"TestWireE2EFollowerMinLSN":            {stores: onFollower, fronts: overWire, ops: []string{"put", "mput", "get", "mget"}, seq: 60},
	"TestReplVolatileServerPostures":       {stores: onVolatile, fronts: overHTTP, ops: []string{"put", "get", "mget", "repl"}, seq: 40},
}

func TestAdjudicationMatrix(t *testing.T)                { runSuite(t) }
func TestServerEndToEnd(t *testing.T)                    { runSuite(t) }
func TestServerReusesConnectionHandle(t *testing.T)      { runSuite(t) }
func TestServerTTLAndReaper(t *testing.T)                { runSuite(t) }
func TestServerMPutTTL(t *testing.T)                     { runSuite(t) }
func TestServerAsyncPutAndFlush(t *testing.T)            { runSuite(t) }
func TestServerDurableCheckpointAndRestart(t *testing.T) { runSuite(t) }
func TestServerCheckpointVolatile(t *testing.T)          { runSuite(t) }
func TestServerTTLRejectsNonPositive(t *testing.T)       { runSuite(t) }
func TestServerCasEndpoint(t *testing.T)                 { runSuite(t) }
func TestServerTxnEndpoint(t *testing.T)                 { runSuite(t) }
func TestWireCasTxn(t *testing.T)                        { runSuite(t) }
func TestClusterCasTxnEndpoints(t *testing.T)            { runSuite(t) }
func TestClusterWireCasTxn(t *testing.T)                 { runSuite(t) }
func TestClusterHTTPEndToEnd(t *testing.T)               { runSuite(t) }
func TestClusterWireEndToEnd(t *testing.T)               { runSuite(t) }
func TestWireCRUD(t *testing.T)                          { runSuite(t) }
func TestWireMinLSNPrimary(t *testing.T)                 { runSuite(t) }
func TestWireMinLSNVolatile(t *testing.T)                { runSuite(t) }
func TestWireValueCaps(t *testing.T)                     { runSuite(t) }
func TestReplE2EPrimaryAndFollowerServers(t *testing.T)  { runSuite(t) }
func TestWireE2EFollowerMinLSN(t *testing.T)             { runSuite(t) }
func TestReplVolatileServerPostures(t *testing.T)        { runSuite(t) }

// allocServers is an engine server over a durable engine and a cluster
// server over two partitions, each holding keys 0–63, 128 bytes each.
func allocServers(t *testing.T) map[string]*Server {
	eng, err := kvs.OpenSharded(t.TempDir(), 8, mkMatrixLock, kvs.SyncNone)
	clu, err2 := cluster.Open(cluster.Config{Partitions: 2, Shards: 4, Dir: t.TempDir(), Policy: kvs.SyncNone})
	if err != nil || err2 != nil {
		t.Fatal(err, err2)
	}
	t.Cleanup(func() { eng.Close(); clu.Close() })
	for k := uint64(0); k < 64; k++ {
		eng.Put(k, make([]byte, 128))
		if _, err := clu.Put(k, make([]byte, 128), 0); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]*Server{"engine": New(eng, Config{ReapInterval: -1}), "cluster": NewClusterServer(clu, Config{ReapInterval: -1})}
}

// wireAllocs is what req costs srv per request on one connection's scratch,
// encoded as a wire response, after a first run sized the buffers.
func wireAllocs(srv *Server, req wire.Request, check func(wire.Response, []byte)) float64 {
	reader, sc := rwl.NewReader(), new(scratch)
	var out []byte
	do := func() {
		resp := srv.execute(reader, &req, sc)
		out = wire.AppendResponse(out[:0], &resp)
		check(resp, out)
	}
	do()
	return testing.AllocsPerRun(1000, do)
}

// The wire GET path allocates nothing per request, through the executor,
// for both stores, with a read token or without: the value lands in the
// connection's scratch and the response encodes into a reused buffer.
func TestWireGetZeroAlloc(t *testing.T) {
	for name, srv := range allocServers(t) {
		for _, minLSN := range []uint64{0, 1} {
			n := wireAllocs(srv, wire.Request{Op: wire.OpGet, ID: 1, Key: 42, MinLSN: minLSN, Epoch: 1}, func(_ wire.Response, out []byte) {
				if len(out) < 128 {
					t.Fatalf("%s: GET (min_lsn %d) returned no value", name, minLSN)
				}
			})
			if n != 0 {
				t.Errorf("%s store: wire GET (min_lsn %d) allocates %.1f times per request, want 0", name, minLSN, n)
			}
		}
	}
}

// A 16-key wire MGET, with a read token or without, costs a handful of
// allocations, not one per key: each engine call copies its values into one
// arena. The cluster store also splits the batch per partition (one array for
// every group) and scatters the values back: 8, to the engine store's 2.
func TestWireMGetAllocs(t *testing.T) {
	for name, srv := range allocServers(t) {
		for _, minLSN := range []uint64{0, 1} {
			n := wireAllocs(srv, wire.Request{Op: wire.OpMGet, ID: 1, Keys: benchKeys, MinLSN: minLSN, Epoch: 1}, func(_ wire.Response, out []byte) {
				if len(out) < 16*128 {
					t.Fatalf("%s: MGET (min_lsn %d) returned %d bytes, want all 16 values", name, minLSN, len(out))
				}
			})
			if max := map[string]float64{"engine": 2, "cluster": 8}[name]; n > max {
				t.Errorf("%s store: 16-key wire MGET (min_lsn %d) allocates %.1f times per request, want at most %.0f", name, minLSN, n, max)
			}
		}
	}
}

// The wire write path through the executor: a PUT and a DELETE allocate
// nothing per request on a durable engine or a cluster, their token landing
// in the connection's scratch. A 16-key MPUT or MDELETE allocates no more
// than measured here (engine 2 and 2, cluster 6 and 5): the engine's batch
// entries, and on a cluster the per-partition split besides.
func TestWireWriteAllocs(t *testing.T) {
	keys, vals := benchKeys, make([][]byte, len(benchKeys))
	for i := range vals {
		vals[i] = make([]byte, 128)
	}
	ceilings := map[string][4]float64{"engine": {0, 0, 2, 2}, "cluster": {0, 0, 6, 5}}
	for name, srv := range allocServers(t) {
		for i, req := range []wire.Request{
			{Op: wire.OpPut, ID: 1, Key: 42, Value: vals[0]},
			{Op: wire.OpDelete, ID: 1, Key: 42},
			{Op: wire.OpMPut, ID: 1, Keys: keys, Values: vals},
			{Op: wire.OpMDelete, ID: 1, Keys: keys},
		} {
			n := wireAllocs(srv, req, func(resp wire.Response, _ []byte) {
				if resp.Status != wire.StatusOK && resp.Status != wire.StatusNotFound || len(resp.LSNs) == 0 {
					t.Fatalf("%s: %v answered %v %q with %d tokens", name, req.Op, resp.Status, resp.Msg, len(resp.LSNs))
				}
			})
			if n > ceilings[name][i] {
				t.Errorf("%s store: wire %v allocates %.1f times per request, want at most %.0f", name, req.Op, n, ceilings[name][i])
			}
		}
	}
}
