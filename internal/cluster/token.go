package cluster

import (
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

// CommitLSN is the token of a write to key on e, the engine of partition
// pi, read after the write applied — so it is at least the write's own
// record (concurrent writers can only push it later: still a covering
// token). Its shard is global, pi × e.NumShards() + e's local shard, and
// it carries epoch. The one place a commit token is stamped: a bare
// engine is partition 0 at epoch 0.
func CommitLSN(e *kvs.Sharded, pi int, epoch uint64, key uint64) ShardLSN {
	sh := e.ShardOf(key)
	return ShardLSN{Shard: uint32(pi*e.NumShards() + sh), LSN: e.ShardLSN(sh), Epoch: epoch}
}

// CommitLSNs appends CommitLSN for each distinct shard keys touch, but a
// shard at LSN 0: like a lone write's, its token would wait for nothing.
func CommitLSNs(dst []ShardLSN, e *kvs.Sharded, pi int, epoch uint64, keys []uint64) []ShardLSN {
	base := len(dst)
	for _, k := range keys {
		tok := CommitLSN(e, pi, epoch, k)
		if tok.LSN > 0 && !slices.ContainsFunc(dst[base:], func(t ShardLSN) bool { return t.Shard == tok.Shard }) {
			dst = append(dst, tok)
		}
	}
	return dst
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
