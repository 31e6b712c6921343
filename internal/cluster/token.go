package cluster

import (
	"bytes"
	"fmt"
	"slices"

	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/wire"
)

// ShardLSN is one global shard's commit position: the cluster's
// read-your-writes token, an (epoch, shard, lsn) triple — the same type the
// wire carries, so a token crosses cluster, serving layer and codec without
// conversion. Shard is global — partition*ShardsPerPartition + the
// engine-local shard — so a token names both the partition that issued it
// and the WAL sequence it refers to. Epoch is the issuing primary's fencing
// epoch (0 only on tokens a bare engine stamps); a token survives a failover
// iff its LSN is inside the surviving-history prefix the promotion cut
// recorded.
type ShardLSN = wire.ShardLSN

// commitLSNs appends to resp.LSNs the token of a write to keys on e, the
// engine of partition pi, read after the write applied: one per distinct
// shard keys touch, but a shard at LSN 0, whose token would wait for nothing
// (a volatile engine's are all 0). Each is at least the write's own record
// (concurrent writers can only push it later: still a covering token); its
// shard is global, pi × e.NumShards() + e's local shard, and it carries
// epoch. It grows resp.LSNs by copying, never by an append stored back: the
// compiler lets a field re-slice itself through a pointer, but an append's
// result stored there sends the caller's buffer to the heap, and Cluster.Put's
// buffer is on its stack.
func commitLSNs(resp *wire.Response, e *kvs.Sharded, pi int, epoch uint64, keys []uint64) {
	base := len(resp.LSNs)
	for _, k := range keys {
		sh := e.ShardOf(k)
		tok := ShardLSN{Shard: uint32(pi*e.NumShards() + sh), LSN: e.ShardLSN(sh), Epoch: epoch}
		if tok.LSN == 0 || slices.ContainsFunc(resp.LSNs[base:], func(t ShardLSN) bool { return t.Shard == tok.Shard }) {
			continue
		}
		n := len(resp.LSNs)
		if n == cap(resp.LSNs) {
			resp.LSNs = append(make([]ShardLSN, 0, 2*n+1), resp.LSNs...)
		}
		resp.LSNs = resp.LSNs[:n+1]
		resp.LSNs[n] = tok
	}
}

// ApplyWrite is the one place a write request becomes engine calls: it
// applies req to e, the engine of partition pi at epoch, answers it into
// resp and appends its commit tokens to resp.LSNs through commitLSNs. A bare
// engine is partition 0 at epoch 0. A batch adds to resp.Applied, so a
// caller fanning one out calls it once per sub-batch with the same resp.
// A delete stamps its token on a miss too (it is logged regardless), and
// a CAS whether or not it swapped (it commits a read-only transaction);
// a TXN whose condition failed stamps none.
func ApplyWrite(e *kvs.Sharded, pi int, epoch uint64, req *wire.Request, resp *wire.Response) error {
	one := [1]uint64{req.Key}
	keys := one[:]
	switch req.Op {
	case wire.OpPut:
		if req.TTL > 0 {
			e.PutTTL(req.Key, req.Value, req.TTL)
		} else {
			e.Put(req.Key, req.Value)
		}
	case wire.OpDelete:
		if !e.Delete(req.Key) {
			resp.Status = wire.StatusNotFound
		}
	case wire.OpCas:
		swapped, err := e.CompareAndSwap(req.Key, req.Old, req.New)
		if err != nil {
			return err
		}
		resp.Swapped = swapped
	case wire.OpMPut:
		if req.TTL > 0 {
			e.MultiPutTTL(req.Keys, req.Values, req.TTL)
		} else {
			e.MultiPut(req.Keys, req.Values)
		}
		resp.Applied += uint32(len(req.Keys))
		keys = req.Keys
	case wire.OpMDelete:
		resp.Applied += uint32(e.MultiDelete(req.Keys))
		keys = req.Keys
	case wire.OpTxn:
		// Applied all-or-nothing while every condition holds (a nil value:
		// the key is absent); else a read-only commit naming the first that
		// failed. Every declared key is locked.
		declared := make([]uint64, len(req.Conds)+len(req.TxnOps))
		for i := range declared {
			declared[i] = txnKey(req, i)
		}
		committed, mismatch := true, uint64(0)
		err := e.Txn(declared, func(tx *kvs.Tx) error {
			for _, c := range req.Conds {
				if cur, ok := tx.Get(c.Key); ok != (c.Value != nil) || ok && !bytes.Equal(cur, c.Value) {
					committed, mismatch = false, c.Key
					return nil
				}
			}
			for _, o := range req.TxnOps {
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
		})
		if err != nil {
			return err
		}
		if resp.Committed, resp.Mismatch = committed, mismatch; !committed {
			return nil
		}
		keys = declared
	default:
		return fmt.Errorf("cluster: %v is not a write", req.Op)
	}
	commitLSNs(resp, e, pi, epoch, keys)
	return nil
}

// txnKey is a TXN's i-th declared key: its conditions' keys, then its ops'.
func txnKey(req *wire.Request, i int) uint64 {
	if i < len(req.Conds) {
		return req.Conds[i].Key
	}
	return req.TxnOps[i-len(req.Conds)].Key
}

// ApplyRead is the one place a read request becomes engine calls: it reads
// a GET or MGET from e through h into resp, a GET's value copied into the
// buffer resp.Value carries. A read carrying a token first hands it to
// check with the local shard of each key, in order; the first verdict
// refuses the read.
func ApplyRead(e *kvs.Sharded, h *rwl.Reader, req *wire.Request, resp *wire.Response, check func(epoch, lsn uint64, shard int) *TokenError) error {
	keys := req.Keys
	if req.Op != wire.OpMGet {
		keys = []uint64{req.Key}
	}
	for i := 0; req.MinLSN != 0 && i < len(keys); i++ {
		if terr := check(req.Epoch, req.MinLSN, e.ShardOf(keys[i])); terr != nil {
			return terr
		}
	}
	switch req.Op {
	case wire.OpGet:
		var ok bool
		if resp.Value, ok = e.GetIntoH(h, req.Key, resp.Value); !ok {
			resp.Status = wire.StatusNotFound
		}
	case wire.OpMGet:
		resp.Values = e.MultiGetH(h, req.Keys)
	default:
		return fmt.Errorf("cluster: %v is not a read", req.Op)
	}
	return nil
}

// TokenError is a read token the serving side cannot honor. Conflict
// distinguishes "the history this token names was lost, superseded or not
// yet replicated" (HTTP 409, wire StatusConflict — the client should retry
// or re-read and re-establish its session) from a malformed or impossible
// token (400).
type TokenError struct {
	Msg      string
	Conflict bool
}

func (e *TokenError) Error() string { return e.Msg }

// checkTokenLocked adjudicates a read's (epoch, lsn) token against one local
// shard of the partition:
//
//   - token epoch == partition epoch: the current primary issued it, so
//     its log must cover the LSN (it always does for genuine tokens; a
//     higher LSN means a client confused about whom it wrote to);
//   - token epoch < partition epoch: the token predates a failover. It
//     survived iff its LSN is ≤ the promotion cut of the first epoch bump
//     after it — the promoted history is a prefix of the old primary's, so
//     the cut is exactly the survived/lost boundary;
//   - token epoch > partition epoch: impossible here (a fenced partition
//     cannot have issued it); the token belongs to a different cluster.
//
// The caller holds p.mu's read side (the fields only change under the write
// side, during failover), and keeps holding it through the read the token
// guards, so no failover falls between the verdict and the read.
func (p *partition) checkTokenLocked(epoch, lsn uint64, shard int) *TokenError {
	switch {
	case epoch == p.epoch:
		if have := p.member.engine.ShardLSN(shard); have < lsn {
			return &TokenError{
				Msg:      fmt.Sprintf("partition %d shard %d at LSN %d, token says %d: this primary never issued it", p.idx, shard, have, lsn),
				Conflict: true,
			}
		}
	case epoch < p.epoch:
		// The binding cut is the first promotion after the token's epoch:
		// later cuts can only extend the surviving prefix.
		for _, promo := range p.promotions {
			if promo.epoch > epoch {
				if lsn <= promo.cut[shard] {
					return nil
				}
				return &TokenError{
					Msg: fmt.Sprintf("partition %d shard %d: write at LSN %d (epoch %d) was lost in the failover to epoch %d (cut %d): re-read and retry",
						p.idx, shard, lsn, epoch, promo.epoch, promo.cut[shard]),
					Conflict: true,
				}
			}
		}
		// Promotions always cover every epoch bump, so this is unreachable;
		// fail closed if bookkeeping ever breaks.
		return &TokenError{
			Msg:      fmt.Sprintf("partition %d: no promotion record covers epoch %d", p.idx, epoch),
			Conflict: true,
		}
	default: // epoch > p.epoch
		return &TokenError{
			Msg: fmt.Sprintf("partition %d is at epoch %d, token says %d: token from a different cluster", p.idx, p.epoch, epoch),
		}
	}
	return nil
}
