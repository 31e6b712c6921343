// The HTTP codec: each operation's route is a parse function that fills a
// wire.Request and a render function that writes a successful wire.Response;
// Server.route runs the executor between them. What is decided here is only
// what HTTP itself adds — reading bodies under a size cap, spelling
// durations and booleans as text, and which 2xx a success is. The routes
// with no wire counterpart (/checkpoint, /stats, /failover, /repl/*) are
// served directly.
package kvserv

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/bravolock/bravo/internal/cluster"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/wire"
)

// readerKey carries the per-connection reader handle in the request context.
type readerKey struct{}

// connReader returns the request's connection-pinned reader handle, nil
// when the request did not come through Serve's ConnContext (e.g. direct
// Handler tests); the engine's read paths degrade gracefully on nil.
func connReader(r *http.Request) *rwl.Reader {
	h, _ := r.Context().Value(readerKey{}).(*rwl.Reader)
	return h
}

// Handler returns the route table. It is usable standalone (httptest), but
// only connections served via Serve get per-connection reader handles.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /kv/{key}", s.route(wire.OpGet, parseGet, renderValue))
	mux.HandleFunc("PUT /kv/{key}", s.route(wire.OpPut, parsePut, renderEmpty))
	mux.HandleFunc("DELETE /kv/{key}", s.route(wire.OpDelete, parseKey, renderEmpty))
	mux.HandleFunc("GET /mget", s.route(wire.OpMGet, parseMGet, renderMGet))
	mux.HandleFunc("POST /mput", s.route(wire.OpMPut, parseMPut, renderMPut))
	mux.HandleFunc("POST /cas", s.route(wire.OpCas, parseCas, renderCas))
	mux.HandleFunc("POST /txn", s.route(wire.OpTxn, parseTxn, renderTxn))
	mux.HandleFunc("POST /flush", s.route(wire.OpFlush, nil, renderFlush))
	mux.HandleFunc("POST /checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /stats", s.handleStats)
	if s.clu != nil {
		mux.HandleFunc("POST /failover/{partition}", s.handleFailover)
	}
	if s.follower != nil {
		mux.HandleFunc("GET /repl/status", s.handleFollowerStatus)
	}
	if s.primary != nil {
		s.primary.Register(mux)
	}
	return mux
}

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

// scratchPool recycles executor scratch across requests (and goroutines —
// HTTP handlers run one per connection), so steady-state point reads skip
// the per-request value-copy allocation.
var scratchPool = sync.Pool{New: func() any { return &scratch{val: make([]byte, 0, 4096)} }}

// route builds op's handler from its HTTP-specific halves: parse (nil when
// the request carries nothing) fills the wire.Request — its error is a 400,
// or a 413 when the body outgrew its cap — and render writes a successful
// response. Between them: execute, then what every reply shares — a
// single-key write's commit headers and the error rendering.
func (s *Server) route(
	op wire.Op,
	parse func(http.ResponseWriter, *http.Request, *wire.Request) error,
	render func(http.ResponseWriter, *wire.Request, *wire.Response),
) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if mutates(op) {
			// The executor refuses too; asking first lets a follower answer
			// its 403 without reading (or faulting on) a body.
			if err := s.store.Writable(); err != nil {
				http.Error(w, err.Error(), httpStatus[classify(err)])
				return
			}
		}
		req := wire.Request{Op: op}
		if parse != nil {
			if err := parse(w, r, &req); err != nil {
				var tooBig *http.MaxBytesError
				if errors.As(err, &tooBig) {
					http.Error(w, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
				} else {
					http.Error(w, err.Error(), http.StatusBadRequest)
				}
				return
			}
		}
		sc := scratchPool.Get().(*scratch)
		defer scratchPool.Put(sc) // resp aliases it until rendered
		resp := s.execute(connReader(r), &req, sc)
		switch op {
		case wire.OpPut, wire.OpDelete, wire.OpCas:
			// The read-your-writes token a client hands back as ?min_lsn=. A
			// delete stamps it on a miss too (the delete is logged regardless).
			if len(resp.LSNs) > 0 {
				tok, h := resp.LSNs[0], w.Header()
				h.Set("X-Commit-Shard", strconv.FormatUint(uint64(tok.Shard), 10))
				h.Set("X-Commit-Lsn", strconv.FormatUint(tok.LSN, 10))
				if tok.Epoch != 0 {
					h.Set("X-Commit-Epoch", strconv.FormatUint(tok.Epoch, 10))
				}
			}
		}
		switch {
		case resp.Status == wire.StatusOK:
			render(w, &req, &resp)
		case resp.Msg == "":
			http.Error(w, "not found", httpStatus[resp.Status])
		default:
			http.Error(w, resp.Msg, httpStatus[resp.Status])
		}
	}
}

func parseKey(_ http.ResponseWriter, r *http.Request, req *wire.Request) (err error) {
	if req.Key, err = strconv.ParseUint(r.PathValue("key"), 10, 64); err != nil {
		return fmt.Errorf("bad key %q: want decimal uint64", r.PathValue("key"))
	}
	return nil
}

// parseToken reads a read's ?min_lsn=[&epoch=] read-your-writes token.
func parseToken(r *http.Request, req *wire.Request) (err error) {
	// Query() builds a map per call; the hot read path carries no token at
	// all, and a plain substring probe keeps it allocation-free.
	if !strings.Contains(r.URL.RawQuery, "min_lsn") {
		return nil
	}
	q := r.URL.Query()
	if raw := q.Get("min_lsn"); raw != "" {
		if req.MinLSN, err = strconv.ParseUint(raw, 10, 64); err != nil {
			return fmt.Errorf("bad min_lsn %q: want a decimal LSN", raw)
		}
	}
	if raw := q.Get("epoch"); raw != "" {
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

// readJSON decodes a JSON body under the batch cap into v.
func readJSON(w http.ResponseWriter, r *http.Request, v any) error {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxMPutBodyBytes)).Decode(v); err != nil {
		return fmt.Errorf("body: %w", err)
	}
	return nil
}

func parseGet(w http.ResponseWriter, r *http.Request, req *wire.Request) error {
	if err := parseKey(w, r, req); err != nil {
		return err
	}
	return parseToken(r, req)
}

func renderValue(w http.ResponseWriter, _ *wire.Request, resp *wire.Response) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(resp.Value)
}

func parsePut(w http.ResponseWriter, r *http.Request, req *wire.Request) (err error) {
	if err = parseKey(w, r, req); err != nil {
		return err
	}
	if req.Value, err = io.ReadAll(http.MaxBytesReader(w, r.Body, MaxValueBytes)); err != nil {
		return fmt.Errorf("body: %w", err)
	}
	q := r.URL.Query()
	if raw := q.Get("async"); raw != "" {
		if req.Async, err = strconv.ParseBool(raw); err != nil {
			return fmt.Errorf("bad async %q: want a boolean", raw)
		}
	}
	if raw := q.Get("ttl"); raw != "" {
		req.TTL, err = parseTTL(raw)
	}
	return err
}

// renderEmpty answers PUT and DELETE: 202 for a write only queued, else 204.
func renderEmpty(w http.ResponseWriter, req *wire.Request, _ *wire.Response) {
	if req.Async {
		w.WriteHeader(http.StatusAccepted)
	} else {
		w.WriteHeader(http.StatusNoContent)
	}
}

// mgetResponse answers /mget: values is parallel to the requested keys,
// null marking absent (or expired) keys; []byte values render as base64.
type mgetResponse struct {
	Values [][]byte `json:"values"`
}

func parseMGet(_ http.ResponseWriter, r *http.Request, req *wire.Request) (err error) {
	raw := r.URL.Query().Get("keys")
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
	return parseToken(r, req)
}

func renderMGet(w http.ResponseWriter, _ *wire.Request, resp *wire.Response) {
	writeJSON(w, mgetResponse{Values: resp.Values})
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

func parseMPut(w http.ResponseWriter, r *http.Request, req *wire.Request) (err error) {
	var body mputRequest
	if err = readJSON(w, r, &body); err != nil {
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

func renderMPut(w http.ResponseWriter, _ *wire.Request, resp *wire.Response) {
	writeJSON(w, mputResponse{int(resp.Applied), renderTokens(resp.LSNs)})
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

func parseCas(w http.ResponseWriter, r *http.Request, req *wire.Request) error {
	var body casRequest
	err := readJSON(w, r, &body)
	req.Key, req.Old, req.New = body.Key, body.Old, body.New
	return err
}

func renderCas(w http.ResponseWriter, _ *wire.Request, resp *wire.Response) {
	writeJSON(w, casResponse{Swapped: resp.Swapped})
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

func parseTxn(w http.ResponseWriter, r *http.Request, req *wire.Request) error {
	var body txnRequest
	if err := readJSON(w, r, &body); err != nil {
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

func renderTxn(w http.ResponseWriter, _ *wire.Request, resp *wire.Response) {
	out := txnResponse{Committed: resp.Committed, batchTokens: renderTokens(resp.LSNs)}
	if !resp.Committed {
		out.Mismatch = &resp.Mismatch
	}
	writeJSON(w, out)
}

func renderFlush(w http.ResponseWriter, _ *wire.Request, resp *wire.Response) {
	writeJSON(w, map[string]int{"flushed": int(resp.Applied)})
}

// handleCheckpoint snapshots every shard and truncates its log. An error
// that carries no status of its own is a real checkpoint IO failure — the
// one honest 500 in this package.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	err := s.store.Writable()
	if err == nil {
		err = s.store.Checkpoint()
	}
	var se *statusError
	switch {
	case err == nil:
		writeJSON(w, map[string]int{"checkpointed": s.stats().NumShards})
	case errors.As(err, &se):
		http.Error(w, err.Error(), httpStatus[se.status])
	default:
		http.Error(w, fmt.Sprintf("checkpoint: %v", err), http.StatusInternalServerError)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.stats())
}

// handleFollowerStatus is the follower's /repl/status: its own positions
// and lag (the primary's /repl/status, same path, reports the other end).
func (s *Server) handleFollowerStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, followerView(s.follower))
}

// handleFailover promotes the named partition's most-caught-up follower:
// the operator's kill switch and the e2e chaos suite's lever.
func (s *Server) handleFailover(w http.ResponseWriter, r *http.Request) {
	pi, err := strconv.Atoi(r.PathValue("partition"))
	if err != nil || pi < 0 || pi >= s.clu.NumPartitions() {
		http.Error(w, fmt.Sprintf("bad partition %q: want 0..%d", r.PathValue("partition"), s.clu.NumPartitions()-1), http.StatusBadRequest)
		return
	}
	epoch, err := s.clu.Failover(pi)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, cluster.ErrNotReady) {
			code = http.StatusServiceUnavailable // retry once a follower bootstraps
		}
		http.Error(w, fmt.Sprintf("failover: %v", err), code)
		return
	}
	writeJSON(w, map[string]uint64{"partition": uint64(pi), "epoch": epoch})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	// Encode errors here mean the client went away mid-response; the status
	// header is already out, so there is nothing useful left to report.
	_ = json.NewEncoder(w).Encode(v)
}
