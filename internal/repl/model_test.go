package repl

// Model-based replication certification: the follower must track the
// primary's visible state exactly, at every LSN, under randomized op
// schedules. A single-mutex reference map follows the schedule on the
// side; the test records the reference state at sampled LSNs, and the
// follower's OnApply hook — which runs synchronously in the puller, with
// the replica frozen at exactly that LSN — compares the replica against
// the reference state for that LSN. Quiescent full-state equality then
// closes each phase. This extends the internal/kvs engine harness's
// engine-vs-reference machinery across the wire.

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/xrand"
)

// refStates records reference snapshots keyed by (shard, lsn), shared
// between the scheduling goroutine and the pullers' hooks.
type refStates struct {
	mu     sync.Mutex
	states map[int]map[uint64]map[uint64][]byte
	hits   int
}

func newRefStates() *refStates {
	return &refStates{states: map[int]map[uint64]map[uint64][]byte{}}
}

func (r *refStates) record(shard int, lsn uint64, state map[uint64][]byte) {
	cp := make(map[uint64][]byte, len(state))
	for k, v := range state {
		cp[k] = append([]byte(nil), v...)
	}
	r.mu.Lock()
	if r.states[shard] == nil {
		r.states[shard] = map[uint64]map[uint64][]byte{}
	}
	r.states[shard][lsn] = cp
	r.mu.Unlock()
}

// check compares a replica shard's visible state against the recorded
// reference for (shard, lsn), if one was sampled.
func (r *refStates) check(t *testing.T, f *Follower, shard int, lsn uint64) {
	r.mu.Lock()
	want, ok := r.states[shard][lsn]
	if ok {
		r.hits++
	}
	r.mu.Unlock()
	if !ok {
		return
	}
	got := f.Engine().SnapshotShard(shard)
	if len(got) != len(want) {
		t.Errorf("shard %d at LSN %d: replica has %d visible keys, model %d", shard, lsn, len(got), len(want))
		return
	}
	for k, wv := range want {
		if gv, ok := got[k]; !ok || !bytes.Equal(gv, wv) {
			t.Errorf("shard %d at LSN %d: key %d = %x (present %v), model %x", shard, lsn, k, gv, ok, wv)
		}
	}
}

func (r *refStates) checked() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits
}

// replModel drives one randomized schedule against a primary engine and a
// per-shard reference model. sample, when true, records the reference
// state of every touched shard after each op, keyed by that shard's LSN.
type replModel struct {
	e        *kvs.Sharded
	refs     []map[uint64][]byte
	states   *refStates
	rng      *xrand.XorShift64
	keyspace uint64
}

func newReplModel(e *kvs.Sharded, states *refStates, seed, keyspace uint64) *replModel {
	m := &replModel{
		e: e, states: states, rng: xrand.NewXorShift64(seed), keyspace: keyspace,
		refs: make([]map[uint64][]byte, e.NumShards()),
	}
	for i := range m.refs {
		m.refs[i] = map[uint64][]byte{}
	}
	return m
}

func (m *replModel) ref(k uint64) map[uint64][]byte { return m.refs[m.e.ShardOf(k)] }

// step runs one random op, folding it into the reference and sampling
// touched shards' states at their new LSNs.
func (m *replModel) step(sample bool) {
	touched := map[int]bool{}
	k := m.rng.Next() % m.keyspace
	switch m.rng.Intn(11) {
	case 0, 1, 2, 3:
		v := kvs.EncodeValue(m.rng.Next())
		m.e.Put(k, v)
		m.ref(k)[k] = v
		touched[m.e.ShardOf(k)] = true
	case 4: // TTL far in the future: visible for the test's lifetime
		v := kvs.EncodeValue(m.rng.Next())
		m.e.PutTTL(k, v, time.Hour)
		m.ref(k)[k] = v
		touched[m.e.ShardOf(k)] = true
	case 5: // born expired: immediately invisible, on both sides of the wire
		m.e.PutTTL(k, kvs.EncodeValue(m.rng.Next()), -1)
		delete(m.ref(k), k)
		touched[m.e.ShardOf(k)] = true
	case 6, 7:
		m.e.Delete(k)
		delete(m.ref(k), k)
		touched[m.e.ShardOf(k)] = true
	case 8, 9: // MultiPut: one record per touched shard group
		n := 1 + int(m.rng.Intn(6))
		keys := make([]uint64, n)
		vals := make([][]byte, n)
		for i := range keys {
			keys[i] = m.rng.Next() % m.keyspace
			vals[i] = kvs.EncodeValue(m.rng.Next())
		}
		m.e.MultiPut(keys, vals)
		for i, bk := range keys {
			m.ref(bk)[bk] = vals[i]
			touched[m.e.ShardOf(bk)] = true
		}
	default: // MultiDelete
		n := 1 + int(m.rng.Intn(6))
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = m.rng.Next() % m.keyspace
		}
		m.e.MultiDelete(keys)
		for _, bk := range keys {
			delete(m.ref(bk), bk)
			touched[m.e.ShardOf(bk)] = true
		}
	}
	if sample {
		for sh := range touched {
			m.states.record(sh, m.e.ShardLSN(sh), m.refs[sh])
		}
	}
}

// finish returns the merged reference state.
func (m *replModel) finish() map[uint64][]byte {
	merged := map[uint64][]byte{}
	for _, ref := range m.refs {
		for k, v := range ref {
			merged[k] = v
		}
	}
	return merged
}

// requireOptimisticSweep re-reads the whole model through the caught-up
// follower's engine and demands both exact agreement and that every read
// was served by the zero-CAS optimistic path: the stream is idle, so the
// replica's seq counters cannot move, and a retry or fallback here means
// an ApplyReplRecord write section left a counter unbalanced.
func requireOptimisticSweep(t *testing.T, e *kvs.Sharded, want map[uint64][]byte, label string) {
	t.Helper()
	before := e.Stats().Total()
	for k, wv := range want {
		gv, ok := e.Get(k)
		if !ok || !bytes.Equal(gv, wv) {
			t.Fatalf("%s: optimistic Get(%d) = %x/%v, model %x", label, k, gv, ok, wv)
		}
	}
	after := e.Stats().Total()
	if got := after.SeqReads - before.SeqReads; got != uint64(len(want)) {
		t.Fatalf("%s: only %d of %d sweep reads were served optimistically", label, got, len(want))
	}
	if after.SeqFallbacks != before.SeqFallbacks {
		t.Fatalf("%s: quiescent sweep fell back %d times", label, after.SeqFallbacks-before.SeqFallbacks)
	}
}

func requireStateEquals(t *testing.T, got, want map[uint64][]byte, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: replica has %d visible keys, model %d", label, len(got), len(want))
	}
	for k, wv := range want {
		if gv, ok := got[k]; !ok || !bytes.Equal(gv, wv) {
			t.Fatalf("%s: key %d = %x (present %v), model %x", label, k, gv, ok, wv)
		}
	}
}

// TestModelReplicationEquivalence replays a randomized schedule, has a
// follower tail it, and asserts state equality at every sampled LSN (via
// the synchronous apply hook) and at quiescence; then keeps the schedule
// running live against the tailing follower and re-asserts at quiescence.
func TestModelReplicationEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		shards  int
		history int
		live    int
		seed    uint64
	}{
		{"1shard", 1, 400, 400, 0x5EED1},
		{"8shards", 8, 600, 600, 0x5EED8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			history, live := tc.history, tc.live
			if testing.Short() {
				history, live = history/4, live/4
			}
			engine, url, _ := startPrimary(t, t.TempDir(), tc.shards, mkBravo)
			states := newRefStates()
			model := newReplModel(engine, states, tc.seed, 256)

			// Phase 1: build history, sampling the reference at every
			// record's LSN, before any follower connects — so the replay
			// hits every sample deterministically.
			for i := 0; i < history; i++ {
				model.step(true)
			}
			merged := model.finish()

			oracle := newLSNOracle(t)
			var f *Follower
			f = openFollower(t, url, func(c *Config) {
				c.Paused = true // hooks reference f; start only once it exists
				c.OnApply = func(shard int, lsn uint64, snapshot bool) {
					oracle.hook(shard, lsn, snapshot)
					states.check(t, f, shard, lsn)
				}
			})
			f.Start()
			if err := f.WaitCaughtUp(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			requireStateEquals(t, f.Engine().Snapshot(), merged, "history quiescence")
			requireOptimisticSweep(t, f.Engine(), merged, "history sweep")
			if states.checked() == 0 {
				t.Fatal("no sampled LSN was ever checked")
			}

			// Phase 2: keep writing while the follower tails live; no
			// sampling (the hook may race the recorder), but quiescent
			// equality and the LSN oracle still hold.
			for i := 0; i < live; i++ {
				model.step(false)
			}
			merged = model.finish()
			if err := f.WaitCaughtUp(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			requireStateEquals(t, f.Engine().Snapshot(), merged, "live quiescence")
			requireOptimisticSweep(t, f.Engine(), merged, "live sweep")
		})
	}
}

// TestModelReplicationAcrossCheckpoint: a follower that bootstraps via a
// snapshot frame (the primary checkpointed its history away) must land on
// the sampled reference state at the snapshot's LSN, then follow the
// incremental stream to quiescent equality.
func TestModelReplicationAcrossCheckpoint(t *testing.T) {
	history, live := 500, 300
	if testing.Short() {
		history, live = 120, 80
	}
	engine, url, _ := startPrimary(t, t.TempDir(), 4, mkBravo)
	states := newRefStates()
	model := newReplModel(engine, states, 0xCAFE, 256)
	for i := 0; i < history; i++ {
		model.step(true)
	}
	model.finish()
	if err := engine.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Sample the post-checkpoint state at each shard's current LSN: that
	// is what each snapshot frame must reconstruct.
	for sh := 0; sh < engine.NumShards(); sh++ {
		states.record(sh, engine.ShardLSN(sh), model.refs[sh])
	}

	oracle := newLSNOracle(t)
	var f *Follower
	f = openFollower(t, url, func(c *Config) {
		c.Paused = true
		c.OnApply = func(shard int, lsn uint64, snapshot bool) {
			oracle.hook(shard, lsn, snapshot)
			if snapshot {
				states.check(t, f, shard, lsn)
			}
		}
	})
	f.Start()
	if err := f.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if oracle.snapshots() == 0 {
		t.Fatal("checkpointed history must force snapshot bootstraps")
	}
	for i := 0; i < live; i++ {
		model.step(false)
	}
	merged := model.finish()
	if err := f.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	requireStateEquals(t, f.Engine().Snapshot(), merged, "post-checkpoint quiescence")
	requireOptimisticSweep(t, f.Engine(), merged, "post-checkpoint sweep")
}
