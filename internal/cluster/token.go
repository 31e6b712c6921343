package cluster

import (
	"bytes"
	"fmt"
	"slices"

	"github.com/bravolock/bravo/internal/kvs"
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

// CommitLSNs appends the token of a write to keys on e, the engine of
// partition pi, read after the write applied: one per distinct shard keys
// touch, but a shard at LSN 0, whose token would wait for nothing (a
// volatile engine's are all 0). Each is at least the write's own record
// (concurrent writers can only push it later: still a covering token); its
// shard is global, pi × e.NumShards() + e's local shard, and it carries
// epoch.
func CommitLSNs(dst []ShardLSN, e *kvs.Sharded, pi int, epoch uint64, keys []uint64) []ShardLSN {
	base := len(dst)
	for _, k := range keys {
		sh := e.ShardOf(k)
		tok := ShardLSN{Shard: uint32(pi*e.NumShards() + sh), LSN: e.ShardLSN(sh), Epoch: epoch}
		if tok.LSN > 0 && !slices.ContainsFunc(dst[base:], func(t ShardLSN) bool { return t.Shard == tok.Shard }) {
			dst = append(dst, tok)
		}
	}
	return dst
}

// ApplyWrite is the one place a write request becomes engine calls: it
// applies req to e, the engine of partition pi at epoch, answers it into
// resp and appends its commit tokens to resp.LSNs through CommitLSNs. A bare
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
	resp.LSNs = CommitLSNs(resp.LSNs, e, pi, epoch, keys)
	return nil
}

// txnKey is a TXN's i-th declared key: its conditions' keys, then its ops'.
func txnKey(req *wire.Request, i int) uint64 {
	if i < len(req.Conds) {
		return req.Conds[i].Key
	}
	return req.TxnOps[i-len(req.Conds)].Key
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

// CheckToken adjudicates a read's (epoch, minLSN) token against every
// shard the keys touch. For each touched (partition, shard):
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
// A nil return means the read may proceed.
func (c *Cluster) CheckToken(epoch, minLSN uint64, keys []uint64) *TokenError {
	if minLSN == 0 {
		return nil
	}
	if epoch == 0 {
		return &TokenError{Msg: "cluster read tokens carry an epoch: pass the epoch stamped on the write"}
	}
	for _, k := range keys {
		pi := c.router.Partition(k)
		p := c.parts[pi]
		p.mu.RLock()
		sh := p.member.engine.ShardOf(k)
		terr := p.checkTokenLocked(epoch, minLSN, sh)
		p.mu.RUnlock()
		if terr != nil {
			return terr
		}
	}
	return nil
}

// checkTokenLocked adjudicates one (epoch, lsn) token against one local
// shard of the partition; the caller holds p.mu (read side suffices — the
// fields only change under the write side, during failover).
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
