package kvs

import (
	"math"
	"time"

	"github.com/bravolock/bravo/internal/clock"
)

// ttlMap is the set of keys an engine stripe or shard holds with a TTL: Reap's
// work list and the TTLKeys count. The deadlines themselves live only in the
// keys' cells (seqCell.expired is the rule), so the set is what a TTL-free
// workload skips with one len check. Guarded by the owner's lock.
type ttlMap map[uint64]struct{}

// set adds key to the set (allocating the map on first use) when it carries
// a deadline, and removes it when deadline is 0 — the sentinel for "no TTL".
// The caller holds the owning stripe/shard write lock.
func (m *ttlMap) set(key uint64, deadline int64) {
	if deadline != 0 {
		if *m == nil {
			*m = make(ttlMap)
		}
		(*m)[key] = struct{}{}
	} else if len(*m) > 0 {
		delete(*m, key)
	}
}

// ttlDeadline converts a relative TTL into an absolute clock.Nanos deadline:
// PutTTL's conversion and the record decoders' re-anchoring of a persisted
// remaining time alike.
func ttlDeadline(ttl time.Duration) int64 {
	return deadlineAt(clock.Nanos(), ttl.Nanoseconds())
}

// deadlineAt is now + rem as a deadline. Non-positive rem yields an
// already-passed deadline, so the key is born expired; a positive rem whose
// deadline would overflow int64 (~292 years of nanoseconds) saturates to
// MaxInt64 — effectively never — rather than wrapping negative and expiring
// the key at birth; and a deadline landing exactly on 0, which is reserved
// for "no TTL", becomes −1, still passed.
func deadlineAt(now, rem int64) int64 {
	d := now + rem
	switch {
	case rem > 0 && d < now:
		return math.MaxInt64
	case d == 0:
		return -1
	}
	return d
}
