// Package kvserv is the serving layer: it turns the repository's lock work
// into a system that answers traffic, in three pieces that each exist once.
//
//	store     what an operation needs from whatever holds the data
//	          (store.go): *cluster.Cluster, or engineStore over one
//	          *kvs.Sharded — a primary's engine or a repl.Follower's
//	          read-only replica. Both hand a read to cluster.ApplyRead,
//	          having it check the read-your-writes token first (the
//	          cluster under the same partition hold as the read), and a
//	          write to cluster.ApplyWrite, which stamps its tokens.
//	executor  Server.execute (exec.go): one wire.Request in, one
//	          wire.Response out. Every other semantic step of every
//	          operation — write admission, value caps, the store call,
//	          error→status classification — is written there and
//	          nowhere else.
//	codecs    HTTP/1.1 (http.go) and the pipelined binary protocol
//	          (wire.go), each one run-to-completion loop per connection.
//	          Each parses its transport into a wire.Request and renders the
//	          wire.Response back; neither knows which store it fronts.
//
// Every read a connection performs goes through one pinned rwl.Reader handle
// owned by that connection's goroutine, so a client's steady-state read
// path — socket to shard map — costs one cached-slot CAS on the shard lock,
// with no per-request identity derivation or hashing.
//
// HTTP endpoints (keys are decimal uint64, values are raw bytes; batched
// bodies are JSON with values base64-encoded, encoding/json's []byte
// convention); the wire front-end serves the same operations, plus MDELETE,
// as internal/wire's binary frames:
//
//	GET    /kv/{key}            value bytes, 404 on miss or TTL expiry
//	PUT    /kv/{key}[?ttl=1s]   store body; ttl attaches an expiry
//	DELETE /kv/{key}            204 when removed, 404 when absent
//	GET    /mget?keys=1,2,3     {"values": [b64|null, ...]} parallel to keys
//	POST   /mput                {"entries":[{"key":1,"value":b64},...],
//	                             "ttl":"1s"?} applied as one MultiPut
//	POST   /cas                 {"key":1,"old":b64|null,"new":b64|null}
//	POST   /txn                 {"if":[...],"ops":[...]}: a conditional
//	                            atomic batch
//	POST   /checkpoint          snapshot every shard and truncate its WAL;
//	                            409 on a volatile engine
//	GET    /stats               shard counters + totals + durability, plus
//	                            the replication or cluster posture
//	POST   /failover/{p}        cluster servers: promote partition p
//
// Statuses are decided once, as a wire.Status, and HTTP maps them through
// one table: 404 miss, 400 malformed or impossible, 403 write to a follower,
// 409 token not covered or checkpoint of a volatile engine, 413 value or
// body over its cap, 503 partition mid-failover.
//
// Read-your-writes tokens are (epoch, shard, lsn) triples end to end. A
// single engine stamps epoch 0, which HTTP spells the original way —
// X-Commit-Shard / X-Commit-Lsn headers, a per-shard "lsns" map on batches;
// a cluster's nonzero epoch adds X-Commit-Epoch and turns the map into
// "commits" triples; a volatile engine stamps nothing. A read presents a
// token back as ?min_lsn=[&epoch=]: a follower waits up to MinLSNWait for
// replication to cover it, a cluster adjudicates it against its failover
// history. A durable engine's server is also a replication primary: a wire
// connection whose first request is a replication op is handed to
// repl.Primary.ServeConn, and HTTP serves /repl/status. NewFollower serves
// a repl.Follower's replica, with /repl/status and /stats reporting lag.
//
// The per-connection handle relies on a connection's requests being served
// one after another on its goroutine, which is how both loops work. The
// HTTP loop speaks HTTP/1.0 and 1.1 only — no h2, whose concurrent streams
// would share the handle.
package kvserv

import (
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/bravolock/bravo/internal/cluster"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/repl"
)

// MaxValueBytes caps a single PUT body (and each MPUT value): the engine
// copies values under shard locks, so unbounded bodies would turn one
// request into a stop-the-world for its shard.
const MaxValueBytes = 1 << 20

// MaxMPutBodyBytes caps a whole JSON body (/mput, /cas, /txn) — the
// aggregate batch ceiling, on top of the per-value MaxValueBytes check
// (base64 plus JSON framing inflate values by ~4/3, so this admits batches
// of several maximum-size entries or thousands of small ones). Oversize
// bodies get 413; split the batch.
const MaxMPutBodyBytes = 16 << 20

// DefaultReapInterval and DefaultReapBudget pace the background TTL reaper:
// an incremental sweep every interval, examining at most budget tracked
// entries per tick under the ordinary shard write locks.
const (
	DefaultReapInterval = 100 * time.Millisecond
	DefaultReapBudget   = kvs.DefaultReapBudget
)

// DefaultMinLSNWait bounds how long a read with ?min_lsn= blocks for the
// replica to catch up before answering 409.
const DefaultMinLSNWait = 2 * time.Second

// DefaultDrainTimeout bounds how long a closing server keeps reading a
// wire connection's already-sent pipelined requests before cutting it off.
// In-flight bytes are in the kernel buffer and readable immediately, so
// this only needs to cover one scheduling round trip, not client think
// time.
const DefaultDrainTimeout = 250 * time.Millisecond

// Config tunes a Server.
type Config struct {
	// ReapInterval paces the background TTL reaper; 0 means
	// DefaultReapInterval, negative disables background reaping (TTL
	// expiry stays lazy on reads).
	ReapInterval time.Duration
	// ReapBudget bounds entries examined per reap tick; 0 means
	// DefaultReapBudget.
	ReapBudget int
	// MinLSNWait bounds a ?min_lsn= read's wait on a follower; 0 means
	// DefaultMinLSNWait.
	MinLSNWait time.Duration
}

// Server serves one store over HTTP (Serve) and the binary wire protocol
// (ServeWire).
type Server struct {
	store         store
	stats         func() statsResponse // assembles the /stats document
	cfg           Config
	headerTimeout time.Duration // httpReadHeaderTimeout
	done          chan struct{}
	wg            sync.WaitGroup

	// What the constructor that applies sets: primary is the replication
	// server side of a durable engine (its WAL is the stream, served on the
	// wire), follower the replica NewFollower serves (its own /repl/status),
	// clu the cluster NewClusterServer fronts (/failover).
	primary  *repl.Primary
	follower *repl.Follower
	clu      *cluster.Cluster

	// The listeners Serve and ServeWire are accepting on and the
	// connections being served, so Close can stop the former and end the
	// latter: true marks a wire connection, which Close drains, where an
	// HTTP one, or a wire one handed to the primary, is cut.
	mu        sync.Mutex
	lns       map[net.Listener]bool
	conns     map[net.Conn]bool
	closeOnce sync.Once
}

// New returns a server over engine. Serve starts it; Close stops it.
// A durable engine's server doubles as a replication primary.
func New(engine *kvs.Sharded, cfg Config) *Server {
	s := newServer(cfg)
	es := &engineStore{e: engine, wait: s.cfg.MinLSNWait}
	if engine.Durable() {
		es.primary = repl.NewPrimary(engine)
		s.primary = es.primary
	}
	s.store, s.stats = es, es.stats
	return s
}

// NewFollower returns a read-only server over f's replica: the read
// endpoints (with ?min_lsn= honored against f's applied LSNs), /stats
// with replication lag, and 403 on every mutating endpoint.
func NewFollower(f *repl.Follower, cfg Config) *Server {
	s := newServer(cfg)
	es := &engineStore{e: f.Engine(), follower: f, wait: s.cfg.MinLSNWait}
	s.store, s.stats, s.follower = es, es.stats, f
	return s
}

// NewClusterServer returns a server fronting c: the same endpoints and
// wire ops as a single-primary server, routed per key across the
// cluster's partitions, with read-your-writes tokens carrying the issuing
// partition's epoch and POST /failover/{partition} for operator-driven
// promotion. Closing the server does not close the cluster — the caller
// owns that lifecycle, like the engine's.
func NewClusterServer(c *cluster.Cluster, cfg Config) *Server {
	s := newServer(cfg)
	s.store, s.clu = c, c
	s.stats = func() statsResponse { return clusterStats(c) }
	return s
}

// newServer holds the store-independent setup; each constructor then
// settles the store.
func newServer(cfg Config) *Server {
	if cfg.ReapInterval == 0 {
		cfg.ReapInterval = DefaultReapInterval
	}
	if cfg.ReapBudget <= 0 {
		cfg.ReapBudget = DefaultReapBudget
	}
	if cfg.MinLSNWait <= 0 {
		cfg.MinLSNWait = DefaultMinLSNWait
	}
	return &Server{
		cfg:           cfg,
		headerTimeout: httpReadHeaderTimeout,
		done:          make(chan struct{}),
		lns:           make(map[net.Listener]bool),
		conns:         make(map[net.Conn]bool),
	}
}

// Serve accepts HTTP connections on l until Close, each served by its own
// connection loop (http.go). It also runs the background TTL reaper (unless
// disabled) so expired keys are removed incrementally while the server is
// up. Like net/http's Server.Serve, it always returns a non-nil error;
// after Close that error is http.ErrServerClosed.
func (s *Server) Serve(l net.Listener) error {
	if s.cfg.ReapInterval > 0 {
		s.wg.Add(1)
		go s.reapLoop()
	}
	return s.accept(l, false, s.serveHTTPConn, http.ErrServerClosed)
}

// accept serves l's connections, each on its own goroutine, until Close —
// after which it returns closed — or an Accept error that is not temporary.
// A temporary one (out of file descriptors, say) is retried after a pause
// that doubles from 5 ms to 1 s, as net/http's Server.Serve does. drain
// marks wire connections, which Close drains rather than cuts.
func (s *Server) accept(l net.Listener, drain bool, serve func(net.Conn), closed error) error {
	s.mu.Lock()
	select {
	case <-s.done:
		s.mu.Unlock()
		l.Close()
		return closed
	default:
	}
	s.lns[l] = true
	s.mu.Unlock()

	for pause := time.Duration(0); ; {
		nc, err := l.Accept()
		var ne net.Error
		if err != nil && errors.As(err, &ne) && ne.Temporary() {
			pause = min(max(2*pause, 5*time.Millisecond), time.Second)
			select {
			case <-s.done:
				return closed
			case <-time.After(pause):
				continue
			}
		}
		if err != nil {
			select {
			case <-s.done:
				return closed
			default:
				return err
			}
		}
		pause = 0
		s.mu.Lock()
		select {
		case <-s.done:
			s.mu.Unlock()
			nc.Close()
			return closed
		default:
		}
		s.conns[nc] = drain
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			serve(nc)
			nc.Close()
			s.mu.Lock()
			delete(s.conns, nc)
			s.mu.Unlock()
		}()
	}
}

// Close stops the server: HTTP listeners and connections, and wire
// connections carrying replication streams, close immediately; wire
// listeners close and each other wire connection gets DefaultDrainTimeout
// to finish answering the pipelined requests its client already sent (the
// read deadline cuts the stream, buffered frames are still served — see
// ServeWire). Then the reaper stops. Every write the
// server answered was already applied, so there is nothing left to commit.
// It does not Close the engine or cluster itself — the caller owns that
// lifecycle (see cmd/kvserv's shutdown path).
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.done)
		s.mu.Lock()
		for l := range s.lns {
			if lerr := l.Close(); err == nil {
				err = lerr
			}
		}
		deadline := time.Now().Add(DefaultDrainTimeout)
		for c, drain := range s.conns {
			if drain {
				c.SetReadDeadline(deadline)
			} else {
				c.Close()
			}
		}
		s.mu.Unlock()
		s.wg.Wait()
	})
	return err
}

// reapLoop is the incremental background TTL reaper: one bounded Reap per
// tick, under the store's ordinary shard write locks.
func (s *Server) reapLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.ReapInterval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.store.Reap(s.cfg.ReapBudget)
		}
	}
}
