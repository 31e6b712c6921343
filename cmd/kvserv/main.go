// Command kvserv serves the sharded BRAVO-backed KV engine over HTTP: the
// repository's traffic-facing front-end. Each connection gets one pinned
// reader handle, so a client's steady-state GET is a cached-slot CAS on the
// shard lock — socket to lock word with no per-request hashing.
//
//	kvserv -addr :7070 -shards 16 -lock bravo-go
//	kvserv -addr :7070 -wire-addr :7071 -data-dir /var/lib/kvserv -sync always
//	kvserv -addr :7072 -follow primary:7071
//
// With -data-dir the engine is durable: every write is logged to a
// per-shard write-ahead log before it is applied (batches are one record
// and, under -sync always, one fsync — group commit), POST /checkpoint
// snapshots the shards and truncates the logs, and restarting against the
// same directory recovers snapshot + log tail. On SIGINT/SIGTERM the
// server shuts down gracefully: stop accepting, then sync and close the
// logs.
//
// A durable kvserv is automatically a replication primary: its -wire-addr
// serves REPL_STREAM (the per-shard LSN-stamped WAL, live) and REPL_STATUS,
// HTTP serves /repl/status, and writes carry X-Commit-Lsn read-your-writes
// tokens. With -follow the process is instead a read-only follower: it
// tails the streams of the primary at that wire address into an in-memory
// replica (sized to the primary's shard count; -shards and -data-dir are
// refused) and serves GET /kv/*, /mget, /stats — honoring ?min_lsn= tokens
// by waiting or 409ing — while writes answer 403.
//
// With -wire-addr the process also listens on the pipelined binary wire
// protocol (internal/wire): length-prefixed CRC-framed requests with
// request-id pipelining, multi-op batches that cost one lock acquisition
// per shard they touch, and binary min_lsn/commit-LSN read-your-writes
// tokens. HTTP stays up as the compatibility front-end; both serve the
// same engine (a follower serves the wire read-only too).
//
//	kvserv -addr :7070 -wire-addr :7071 -data-dir /var/lib/kvserv
//
// With -cluster N the process runs as a hash-routed cluster of N
// partitioned primaries (internal/cluster), each with -cluster-followers
// live replicas as its failover pool. The keyspace splits by rendezvous
// hashing, MGET/MPUT fan out per partition, write tokens widen to
// (epoch, shard, lsn) triples (X-Commit-Epoch joins the headers), and
// POST /failover/{partition} promotes the most-caught-up follower behind
// an LSN-fenced epoch bump. -data-dir is required (primaries are durable)
// and -follow is refused.
//
//	kvserv -addr :7070 -cluster 4 -cluster-followers 2 -data-dir /var/lib/kvserv
//
// Endpoints: GET/PUT/DELETE /kv/{key} (PUT takes ?ttl=1s),
// GET /mget?keys=1,2,3, POST /mput, POST /cas, POST /txn, POST /checkpoint,
// GET /stats, GET /repl/status, and in cluster mode
// POST /failover/{partition}. See internal/kvserv, internal/repl,
// internal/cluster, and README's "Serving traffic", "Persistence",
// "Replication", and "Cluster" sections.
//
// The lock lineup is the benchmark registry's (-lock accepts any name from
// the README menu: go-rw, mutex, bravo-go, bravo-ba, ...), so the serving
// stack can be A/B'd across substrates exactly like the benchmarks.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"github.com/bravolock/bravo/internal/cluster"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/kvserv"
	_ "github.com/bravolock/bravo/internal/locks/all"
	"github.com/bravolock/bravo/internal/repl"
	"github.com/bravolock/bravo/internal/rwl"
)

var (
	addrFlag     = flag.String("addr", ":7070", "HTTP listen address")
	wireAddrFlag = flag.String("wire-addr", "", "binary wire-protocol listen address (empty: HTTP only)")

	shardsFlag     = flag.Int("shards", 16, "shard count (positive power of two)")
	lockFlag       = flag.String("lock", "bravo-go", "per-shard lock (registry name)")
	reapFlag       = flag.Duration("reap", kvserv.DefaultReapInterval, "TTL reap interval (<0 disables background reaping)")
	reapBudgetFlag = flag.Int("reapbudget", kvserv.DefaultReapBudget, "TTL entries examined per reap tick")
	dataDirFlag    = flag.String("data-dir", "", "durable data directory (empty: volatile, lost on exit)")
	syncFlag       = flag.String("sync", "always", "WAL sync policy with -data-dir: always (fsync per batch) or none")
	followFlag     = flag.String("follow", "", "primary's wire address (its -wire-addr, host:port): run as a read-only replication follower")

	clusterFlag          = flag.Int("cluster", 0, "partition count: run as a hash-routed cluster of N primaries (requires -data-dir)")
	clusterFollowersFlag = flag.Int("cluster-followers", 1, "replicas per partition with -cluster: the failover pool")
)

func main() {
	flag.Parse()
	mk, ok := rwl.Lookup(*lockFlag)
	if !ok {
		_, err := rwl.New(*lockFlag) // canonical unknown-name error with the menu
		fatal(err)
	}
	policy, err := kvs.ParseSyncPolicy(*syncFlag) // refused even where unused
	if err != nil {
		fatal(err)
	}
	if *followFlag != "" {
		if *clusterFlag > 0 {
			fatal(fmt.Errorf("-follow and -cluster are exclusive: a cluster runs its own follower pools"))
		}
		runFollower(mk)
		return
	}
	if *clusterFlag > 0 {
		runCluster(mk, policy)
		return
	}
	var engine *kvs.Sharded
	durability := "volatile (no -data-dir: state dies with the process)"
	if *dataDirFlag == "" {
		engine, err = kvs.NewSharded(*shardsFlag, mk)
	} else {
		engine, err = kvs.OpenSharded(*dataDirFlag, *shardsFlag, mk, policy)
		durability = fmt.Sprintf("durable in %s (sync %s)", *dataDirFlag, policy)
	}
	if err != nil {
		fatal(err)
	}
	l, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		fatal(err)
	}
	srv := kvserv.New(engine, serverConfig())
	handles := "anonymous reads (substrate has no handle path)"
	if engine.HandleCapable() {
		handles = "one pinned reader handle per connection"
	}
	fmt.Printf("kvserv: serving on %s — %d×%s shards, %s, reap %v, %s\n",
		l.Addr(), *shardsFlag, *lockFlag, handles, *reapFlag, durability)
	serve(srv, l, engine.Close)
}

// runCluster is the -cluster mode: open N hash-routed partitioned
// primaries under -data-dir, each with its follower pool, and serve the
// whole keyspace through the cluster front-end.
func runCluster(mk rwl.Factory, policy kvs.SyncPolicy) {
	if *dataDirFlag == "" {
		fatal(fmt.Errorf("-cluster requires -data-dir: partition primaries are durable (failover needs their WALs)"))
	}
	c, err := cluster.Open(cluster.Config{
		Partitions: *clusterFlag,
		Shards:     *shardsFlag,
		Followers:  *clusterFollowersFlag,
		Dir:        *dataDirFlag,
		Policy:     policy,
		MkLock:     mk,
	})
	if err != nil {
		fatal(err)
	}
	l, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		c.Close()
		fatal(err)
	}
	srv := kvserv.NewClusterServer(c, serverConfig())
	fmt.Printf("kvserv: cluster of %d primaries on %s — %d×%s shards each, %d followers each, durable in %s (sync %s), reap %v\n",
		*clusterFlag, l.Addr(), *shardsFlag, *lockFlag, *clusterFollowersFlag, *dataDirFlag, policy, *reapFlag)
	serve(srv, l, c.Close)
}

// runFollower is the -follow mode: tail the primary's WAL streams into an
// in-memory replica and serve it read-only.
func runFollower(mk rwl.Factory) {
	if *dataDirFlag != "" {
		fatal(fmt.Errorf("-follow and -data-dir are exclusive: a follower's log of record is its primary's WAL"))
	}
	flag.Visit(func(fl *flag.Flag) {
		if fl.Name == "shards" {
			fatal(fmt.Errorf("-follow and -shards are exclusive: the replica is sized to the primary's shard count"))
		}
	})
	f, err := repl.Open(repl.Config{Primary: *followFlag, MkLock: mk})
	if err != nil {
		fatal(err)
	}
	l, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		fatal(err)
	}
	srv := kvserv.NewFollower(f, serverConfig())
	fmt.Printf("kvserv: read-only follower of %s on %s — %d×%s shards, reap %v\n",
		f.Primary(), l.Addr(), f.NumShards(), *lockFlag, *reapFlag)
	// A follower's Close has nothing to report: its replica is in memory.
	serve(srv, l, func() error { f.Close(); return nil })
}

// serve runs srv on l, and on -wire-addr, until SIGINT/SIGTERM or a
// listener failure, then closes the store with closeStore. Graceful
// shutdown: stop accepting, then sync and close the WAL so a restart
// recovers everything acknowledged.
func serve(srv *kvserv.Server, l net.Listener, closeStore func() error) {
	startWire(srv)
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	select {
	case sig := <-sigc:
		fmt.Printf("kvserv: %v — shutting down\n", sig)
		srv.Close()
		<-done
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			closeStore()
			fatal(err)
		}
	}
	if err := closeStore(); err != nil {
		fatal(err)
	}
}

// serverConfig is every mode's server configuration: the reap flags.
func serverConfig() kvserv.Config {
	return kvserv.Config{ReapInterval: *reapFlag, ReapBudget: *reapBudgetFlag}
}

// startWire mounts the binary wire front-end on -wire-addr (a no-op when
// the flag is empty). It serves the same engine — and, in follower mode,
// the same read-only posture — as the HTTP listener; srv.Close stops it.
func startWire(srv *kvserv.Server) {
	if *wireAddrFlag == "" {
		return
	}
	wl, err := net.Listen("tcp", *wireAddrFlag)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("kvserv: wire protocol on %s\n", wl.Addr())
	go func() {
		if err := srv.ServeWire(wl); err != nil && err != kvserv.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "kvserv: wire:", err)
		}
	}()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kvserv:", err)
	os.Exit(1)
}
