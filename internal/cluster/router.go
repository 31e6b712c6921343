// Package cluster scales the engine's bet one level up. The paper's core
// move is letting reads fan out to cheap distributed structures while
// writes serialize through a narrow path; a single replicated primary (PR
// 5) applies that between machines but still funnels every write of the
// whole keyspace through one process. Here the keyspace is spread across N
// partitioned primaries by rendezvous hashing, each with its own follower
// set, and the narrow path a failure squeezes through is promotion: when a
// primary dies, the most-caught-up follower is promoted at an exact
// per-shard LSN cut, and a monotonically increasing fencing epoch —
// stamped into every read-your-writes token — guarantees a revived old
// primary can never commit again.
package cluster

import (
	"fmt"

	"github.com/bravolock/bravo/internal/hash"
)

// Router maps keys to partitions by rendezvous hashing over stable
// partition IDs. Routing is total and deterministic (every key maps to
// exactly one live partition, the same one wherever the ID set agrees) and
// minimally disruptive: changing the membership by one ID moves only the
// keys whose top rendezvous score involved it — an expected 1/N of the
// keyspace on join, exactly the departed ID's keys on leave.
type Router struct {
	ids []uint64
}

// NewRouter builds a router over the given partition IDs. IDs must be
// non-empty and unique; they are identity, not position, so the mapping
// survives reordering of the slice.
func NewRouter(ids []uint64) (*Router, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one partition")
	}
	seen := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate partition ID %d", id)
		}
		seen[id] = true
	}
	return &Router{ids: append([]uint64(nil), ids...)}, nil
}

// Partition returns the index (into the ID slice) of the partition owning
// key.
func (r *Router) Partition(key uint64) int {
	return hash.RendezvousOwner(key, r.ids)
}

// Split groups positions of keys by owning partition: Split(keys)[p] lists,
// in order, the indices i with Partition(keys[i]) == p. The front-ends use
// it to fan a batch out onto each partition's shard-grouping pass with one
// engine call per partition. One array holds each key's owner and every
// group, cut to the sizes a first pass counts in the groups' lengths.
func (r *Router) Split(keys []uint64) [][]int {
	n := len(keys)
	all, groups := make([]int, 2*n), make([][]int, len(r.ids))
	owner, idx := all[:n], all[n:]
	for i, k := range keys {
		owner[i] = r.Partition(k)
		groups[owner[i]] = idx[:len(groups[owner[i]])+1]
	}
	for p, off := 0, 0; p < len(groups); p++ {
		groups[p], off = idx[off:off:off+len(groups[p])], off+len(groups[p])
	}
	for i, p := range owner {
		groups[p] = append(groups[p], i)
	}
	return groups
}
