package kvserv

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"github.com/bravolock/bravo/internal/cluster"
	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/wire"
)

// scratch is a serving goroutine's reusable memory: one per wire connection,
// pooled across HTTP requests. Responses alias it, which is safe because
// each front-end renders a response before it executes the next request on
// the same scratch. It is what makes a steady-state GET allocation-free: the
// value lands in val, a single write's token in lsns.
type scratch struct {
	val  []byte           // GET value buffer, grown to the largest value served
	key  [1]uint64        // a point read's key, as the slice CheckToken takes
	lsns [1]wire.ShardLSN // a single-key write's token
	doc  []byte           // STATS JSON document buffer
}

// execute performs one operation against the store: the transport-neutral
// core both codecs call. The response may alias sc; render it before the
// next call. A failure is decided here, once — the status by classify, the
// message by the error — and carries no partial result.
func (s *Server) execute(h *rwl.Reader, req *wire.Request, sc *scratch) wire.Response {
	resp := wire.Response{Op: req.Op, ID: req.ID}
	if err := s.apply(h, req, sc, &resp); err != nil {
		resp = wire.Response{Op: req.Op, ID: req.ID, Status: classify(err), Msg: err.Error()}
	}
	return resp
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
	case wire.OpPut, wire.OpDelete, wire.OpMPut, wire.OpMDelete, wire.OpCas, wire.OpTxn, wire.OpFlush:
		return true
	}
	return false
}

// tooLarge rejects a value over MaxValueBytes; where locates it in a batch.
func tooLarge(where string) error {
	return &statusError{wire.StatusTooLarge, fmt.Sprintf("%svalue exceeds %d bytes", where, MaxValueBytes)}
}

// checkToken enforces a read's (MinLSN, Epoch) read-your-writes token.
func (s *Server) checkToken(req *wire.Request, keys []uint64) error {
	if req.MinLSN == 0 {
		return nil // the hot path carries no token
	}
	if terr := s.store.CheckToken(req.Epoch, req.MinLSN, keys); terr != nil {
		return terr
	}
	return nil
}

// stamp returns a single-key write's token as the response's LSN list; a
// store without a log stamps nothing.
func (sc *scratch) stamp(tok wire.ShardLSN) []wire.ShardLSN {
	if tok.LSN == 0 {
		return nil
	}
	sc.lsns[0] = tok
	return sc.lsns[:]
}

func (s *Server) apply(h *rwl.Reader, req *wire.Request, sc *scratch, resp *wire.Response) error {
	if mutates(req.Op) {
		if err := s.store.Writable(); err != nil {
			return err
		}
	}
	switch req.Op {
	case wire.OpGet:
		sc.key[0] = req.Key
		if err := s.checkToken(req, sc.key[:]); err != nil {
			return err
		}
		v, ok := s.store.Get(h, req.Key, sc.val[:0])
		if !ok {
			resp.Status = wire.StatusNotFound
			return nil
		}
		sc.val = v // keep the possibly-grown buffer
		resp.Value = v

	case wire.OpMGet:
		if err := s.checkToken(req, req.Keys); err != nil {
			return err
		}
		resp.Values = s.store.MultiGet(h, req.Keys)

	case wire.OpPut:
		if len(req.Value) > MaxValueBytes {
			return tooLarge("")
		}
		if req.Async {
			if req.TTL > 0 {
				return &statusError{wire.StatusBadRequest, "ttl and async are exclusive: the queue applies without TTL"}
			}
			// PutAsync keeps the value past the call and the request's bytes
			// are the connection's decode buffer, so detach. No token: the
			// write has not applied yet.
			return s.store.PutAsync(req.Key, append([]byte(nil), req.Value...))
		}
		tok, err := s.store.Put(req.Key, req.Value, req.TTL)
		if err != nil {
			return err
		}
		resp.LSNs = sc.stamp(tok)

	case wire.OpDelete:
		ok, tok, err := s.store.Delete(req.Key)
		if err != nil {
			return err
		}
		resp.LSNs = sc.stamp(tok)
		if !ok {
			resp.Status = wire.StatusNotFound
		}

	case wire.OpMPut:
		for i, v := range req.Values {
			if len(v) > MaxValueBytes {
				return tooLarge(fmt.Sprintf("entry %d: ", i))
			}
		}
		// On a mid-batch fencing error the tokens already earned are dropped
		// with it: the client retries the whole batch (puts are idempotent).
		toks, err := s.store.MultiPut(req.Keys, req.Values, req.TTL)
		if err != nil {
			return err
		}
		resp.Applied, resp.LSNs = uint32(len(req.Keys)), toks

	case wire.OpMDelete:
		removed, toks, err := s.store.MultiDelete(req.Keys)
		if err != nil {
			return err
		}
		resp.Applied, resp.LSNs = uint32(removed), toks

	case wire.OpCas:
		if len(req.Old) > MaxValueBytes || len(req.New) > MaxValueBytes {
			return tooLarge("")
		}
		swapped, tok, err := s.store.Cas(req.Key, req.Old, req.New)
		if err != nil {
			return err
		}
		resp.Swapped, resp.LSNs = swapped, sc.stamp(tok)

	case wire.OpTxn:
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
		ct := &condTxn{conds: req.Conds, ops: req.TxnOps}
		toks, err := s.store.Txn(ct.keys(), ct.body)
		if err != nil {
			return err
		}
		resp.Committed = ct.committed
		if ct.committed {
			resp.LSNs = toks
		} else {
			resp.Mismatch = ct.mismatch
		}

	case wire.OpFlush:
		resp.Applied = uint32(s.store.Flush())

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

	default:
		return &statusError{wire.StatusUnsupported, "unknown op"}
	}
	return nil
}

// condTxn plans one conditional atomic batch — a set of preconditions on
// current values plus a list of writes, applied all-or-nothing while every
// condition holds: the remotable form of the engine's callback Txn. The
// declared key set is the union of condition and op keys (every one is
// locked, and every one's shard is stamped in the commit tokens); body
// checks the conditions and stages the ops inside the locked transaction.
type condTxn struct {
	conds []wire.TxnCond
	ops   []wire.TxnOp

	committed bool
	mismatch  uint64 // the first failing condition's key when !committed
}

func (ct *condTxn) keys() []uint64 {
	keys := make([]uint64, 0, len(ct.conds)+len(ct.ops))
	for _, c := range ct.conds {
		keys = append(keys, c.Key)
	}
	for _, o := range ct.ops {
		keys = append(keys, o.Key)
	}
	return keys
}

func (ct *condTxn) body(tx *kvs.Tx) error {
	ct.committed = true
	for _, c := range ct.conds {
		cur, ok := tx.Get(c.Key)
		match := ok && c.Value != nil && bytes.Equal(cur, c.Value)
		if c.Value == nil {
			match = !ok
		}
		if !match {
			ct.committed, ct.mismatch = false, c.Key
			return nil // read-only commit: no writes staged
		}
	}
	for _, o := range ct.ops {
		switch {
		case o.Del:
			tx.Delete(o.Key)
		case o.TTL > 0:
			tx.PutTTL(o.Key, o.Value, o.TTL)
		default:
			tx.Put(o.Key, o.Value)
		}
	}
	return nil
}
