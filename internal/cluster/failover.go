package cluster

import (
	"errors"
	"fmt"

	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/repl"
)

// ErrNotReady is returned by Failover when no follower has applied the
// partition's full promoted base yet (a fresh follower mid-bootstrap).
// Promoting such a follower would regress below a previous promotion's
// cut — un-surviving history an earlier epoch bump already certified as
// kept — so the failover is refused before anything is fenced; retry once
// replication has had a moment.
var ErrNotReady = errors.New("cluster: no follower has caught up to the promoted base")

// Failover deposes partition pi's primary and promotes its most-caught-up
// follower. The protocol, in fencing order:
//
//  1. Fence the old primary. Holding the partition lock's write side, no
//     write is in flight, so marking the member fenced is the fence:
//     nothing can ever commit there again, and the follower positions
//     read below are final.
//  2. Stop the replication endpoint and the followers' pullers, freezing
//     each follower at an exact per-shard applied prefix of the old
//     primary's history.
//  3. Pick the eligible follower (one that has applied at least the
//     promoted base — see ErrNotReady) with the highest total applied LSN;
//     its positions are the promotion cut — the boundary between history
//     that survived and acknowledged writes that are lost (the price of
//     asynchronous replication; call WaitCaughtUp first for a zero-loss
//     planned handoff). Cuts are therefore monotonic per shard across
//     promotions, which is what lets token adjudication bind a stale token
//     to the first promotion after its epoch.
//  4. Seed a fresh durable directory from the follower's state, stamped at
//     the cut (kvs.SeedSnapshotDir), and open the new primary over it at
//     epoch+1 with its LSNs floored at the cut: the new log continues the
//     old sequence, so tokens stay comparable across the bump.
//  5. Record the cut against the new epoch (token adjudication), swap the
//     partition to the new member, and rebuild the follower set against
//     it.
//
// The partition's lock is held for the duration: operations on this
// partition block until promotion completes (recovery-time-to-first-write)
// while other partitions keep serving. The fenced corpse is retained —
// chaos tests keep writing to it to prove the fence holds — and closed
// with the cluster.
func (c *Cluster) Failover(pi int) (newEpoch uint64, err error) {
	if pi < 0 || pi >= len(c.parts) {
		return 0, fmt.Errorf("cluster: no partition %d", pi)
	}
	p := c.parts[pi]
	p.mu.Lock()
	defer p.mu.Unlock()

	if len(p.followers) == 0 {
		return 0, fmt.Errorf("cluster: partition %d has no followers to promote", pi)
	}
	// Eligibility gate, checked before fencing anything: a follower is
	// promotable only once every shard has applied at least the promoted
	// base (the previous promotion's cut) — otherwise its position would
	// drag the new cut below the old one, losing history a previous epoch
	// bump already adjudicated as survived. Applied positions are monotonic
	// while pullers run, so an eligible follower stays eligible through the
	// fence below.
	base := p.base()
	if mostCaughtUp(p.followers, base) == nil {
		return 0, fmt.Errorf("cluster: partition %d: %w", pi, ErrNotReady)
	}

	old := p.member
	old.fenced.Store(true)
	old.prim.Close() // stop serving replication; the engine stays open, a corpse
	for _, f := range p.followers {
		f.Stop()
	}

	best := mostCaughtUp(p.followers, base)
	cut := best.AppliedLSNs()

	newEpoch = p.epoch + 1
	dir := c.partDir(pi, newEpoch)
	if err := kvs.SeedSnapshotDir(dir, best.Engine(), cut); err != nil {
		return 0, fmt.Errorf("cluster: partition %d: seeding promoted state: %w", pi, err)
	}
	m, err := newMember(pi, newEpoch, dir, c.cfg.Shards, c.cfg.MkLock, c.cfg.Policy, &p.mu)
	if err != nil {
		return 0, fmt.Errorf("cluster: partition %d: opening promoted primary: %w", pi, err)
	}
	// The whole old follower set retires: the promoted one's state now
	// lives in the new primary, the rest bootstrap fresh from it (snapshot
	// frame resync — cheaper than reasoning about resuming mid-epoch).
	for _, f := range p.followers {
		f.Close()
	}
	fs, err := c.openFollowers(m)
	if err != nil {
		m.Close()
		return 0, fmt.Errorf("cluster: partition %d: rebuilding followers: %w", pi, err)
	}

	p.promotions = append(p.promotions, promotion{epoch: newEpoch, cut: cut})
	p.corpses = append(p.corpses, old)
	p.member = m
	p.followers = fs
	p.epoch = newEpoch
	return newEpoch, nil
}

// base returns the partition's promoted base: the latest promotion's cut,
// or nil (all zeros) in the partition's first epoch. Caller holds p.mu.
func (p *partition) base() []uint64 {
	if len(p.promotions) == 0 {
		return nil
	}
	return p.promotions[len(p.promotions)-1].cut
}

// mostCaughtUp returns the eligible follower with the highest total applied
// LSN, or nil when none is eligible. A follower is eligible when it has
// applied at least base on every shard, making its positions a valid next
// cut.
func mostCaughtUp(fs []*repl.Follower, base []uint64) *repl.Follower {
	var best *repl.Follower
	var bestSum uint64
	for _, f := range fs {
		applied, sum := f.AppliedLSNs(), uint64(0)
		eligible := base == nil || len(applied) == len(base)
		for sh, l := range applied {
			sum += l
			eligible = eligible && (base == nil || l >= base[sh])
		}
		if eligible && (best == nil || sum > bestSum) {
			best, bestSum = f, sum
		}
	}
	return best
}

// Cut returns the promotion cut that installed epoch on partition pi (per
// local shard), or nil when epoch is the partition's first. Chaos oracles
// use it to truncate the model at the survived-history boundary.
func (c *Cluster) Cut(pi int, epoch uint64) []uint64 {
	p := c.parts[pi]
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, promo := range p.promotions {
		if promo.epoch == epoch {
			return append([]uint64(nil), promo.cut...)
		}
	}
	return nil
}
