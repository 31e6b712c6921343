package kvserv

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"github.com/bravolock/bravo/internal/cluster"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/wire"
)

// scratch is a serving goroutine's reusable memory: one per wire connection,
// pooled across HTTP requests. Responses alias it, which is safe because
// each front-end renders a response before it executes the next request on
// the same scratch. It is what makes a steady-state GET or PUT
// allocation-free: the value lands in val, a write's tokens in lsns, and the
// response the store fills is resp.
type scratch struct {
	val  []byte          // GET value buffer, grown to the largest value served
	lsns []wire.ShardLSN // a write's tokens, grown to the most shards stamped
	doc  []byte          // STATS JSON document buffer
	resp wire.Response   // the response being built
}

// execute performs one operation against the store: the transport-neutral
// core both codecs call. The response may alias sc; render it before the
// next call. A failure is decided here, once — the status by classify, the
// message by the error — and carries no partial result.
func (s *Server) execute(h *rwl.Reader, req *wire.Request, sc *scratch) wire.Response {
	resp := &sc.resp
	*resp = wire.Response{Op: req.Op, ID: req.ID}
	if err := s.apply(h, req, sc, resp); err != nil {
		*resp = wire.Response{Op: req.Op, ID: req.ID, Status: classify(err), Msg: err.Error()}
	}
	return *resp
}

// classify maps an operation's error to its status. Anything unrecognized
// is the request's fault: every remaining error a store returns rejects the
// shape of what was asked (a transaction with no keys, too many, or keys
// spanning partitions).
func classify(err error) wire.Status {
	var se *statusError
	var te *cluster.TokenError
	switch {
	case errors.As(err, &se):
		return se.status
	case errors.As(err, &te):
		if te.Conflict {
			return wire.StatusConflict
		}
	case errors.Is(err, cluster.ErrFenced):
		// The partition is promoting a follower: retry shortly.
		return wire.StatusUnavailable
	}
	return wire.StatusBadRequest
}

// mutates reports whether op needs a store that takes writes.
func mutates(op wire.Op) bool {
	switch op {
	case wire.OpPut, wire.OpDelete, wire.OpMPut, wire.OpMDelete, wire.OpCas, wire.OpTxn:
		return true
	}
	return false
}

// tooLarge rejects a value over MaxValueBytes; where locates it in a batch.
func tooLarge(where string) error {
	return &statusError{wire.StatusTooLarge, fmt.Sprintf("%svalue exceeds %d bytes", where, MaxValueBytes)}
}

// capValues rejects a write carrying a value over MaxValueBytes.
func capValues(req *wire.Request) error {
	if len(req.Value) > MaxValueBytes || len(req.Old) > MaxValueBytes || len(req.New) > MaxValueBytes {
		return tooLarge("")
	}
	for i, v := range req.Values {
		if len(v) > MaxValueBytes {
			return tooLarge(fmt.Sprintf("entry %d: ", i))
		}
	}
	for i, c := range req.Conds {
		if len(c.Value) > MaxValueBytes {
			return tooLarge(fmt.Sprintf("condition %d: ", i))
		}
	}
	for i, o := range req.TxnOps {
		if len(o.Value) > MaxValueBytes {
			return tooLarge(fmt.Sprintf("op %d: ", i))
		}
	}
	return nil
}

func (s *Server) apply(h *rwl.Reader, req *wire.Request, sc *scratch, resp *wire.Response) error {
	if mutates(req.Op) {
		if err := s.store.Writable(); err != nil {
			return err
		}
		if err := capValues(req); err != nil {
			return err
		}
		resp.LSNs = sc.lsns[:0]
		err := s.store.Write(req, resp)
		sc.lsns = resp.LSNs[:0] // keep the possibly-grown buffer
		return err
	}
	switch req.Op {
	case wire.OpGet, wire.OpMGet:
		resp.Value = sc.val[:0]
		err := s.store.Read(h, req, resp)
		sc.val = resp.Value // keep the possibly-grown buffer
		return err

	case wire.OpStats:
		// Encode into the scratch document buffer: steady-state STATS polling
		// reuses one allocation instead of re-marshaling ~5KB per request.
		buf := bytes.NewBuffer(sc.doc[:0])
		if err := json.NewEncoder(buf).Encode(s.stats()); err != nil {
			// Cannot fail on the types involved; surfacing beats hiding it.
			return fmt.Errorf("stats marshal: %w", err)
		}
		sc.doc = buf.Bytes()
		// Trim the Encoder's trailing newline: STATS carries the document,
		// not a stream line.
		resp.Stats = sc.doc[:len(sc.doc)-1]

	case wire.OpReplStatus, wire.OpReplStream:
		// A durable engine's server hands these to its repl.Primary
		// (serveWireConn): this store has no log to serve.
		return &statusError{wire.StatusConflict, "not a replication primary: only a kvserv with -data-dir, and neither -follow nor -cluster, streams its WAL"}

	default:
		return &statusError{wire.StatusUnsupported, "unknown op"}
	}
	return nil
}
