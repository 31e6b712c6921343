package kvs

// Tests for per-shard adaptive biasing: the feedback loop from the shard op
// counters through bias.Adaptor into the lock mode, the ShardStats
// bias_mode/bias_flips surface, and the coherence of those stats under
// concurrent flips.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/xrand"
)

func TestShardedAdaptiveCapability(t *testing.T) {
	plain, err := NewSharded(4, mkBravo)
	if err != nil {
		t.Fatal(err)
	}
	if plain.ShardAdaptor(0) != nil {
		t.Fatal("plain BRAVO engine carries an adaptor")
	}
	// Stats omit the bias fields.
	plain.Put(1, EncodeValue(1))
	if st := plain.Stats().Shards[0]; st.BiasMode != "" || st.BiasFlips != 0 {
		t.Fatalf("non-adaptive stats carry bias fields: %q/%d", st.BiasMode, st.BiasFlips)
	}

	ad, err := NewSharded(4, mkAdaptive)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ad.NumShards(); i++ {
		if ad.ShardAdaptor(i) == nil {
			t.Fatalf("shard %d has no adaptor", i)
		}
	}
	if st := ad.Stats().Shards[0]; st.BiasMode != "biased" {
		t.Fatalf("initial bias_mode = %q, want biased", st.BiasMode)
	}
}

// TestShardedAdaptiveAutoFlips drives the closed loop end to end: a
// write-heavy phase must demote shards off biased mode purely from the op
// counters, and a read-heavy phase must promote them back.
func TestShardedAdaptiveAutoFlips(t *testing.T) {
	s, err := NewSharded(4, mkAdaptive)
	if err != nil {
		t.Fatal(err)
	}
	// Reads must reach the shard counters either way; seq reads do (the
	// counters tick outside the lock), so leave the default read path on.
	const keys = 256
	for k := uint64(0); k < keys; k++ {
		s.Put(k, EncodeValue(k))
	}

	// Each phase fills several of the adaptor's 4096-op windows per shard.
	const ops = 80000
	// Write-heavy storm: every shard's windows are write-dominated.
	rng := xrand.NewXorShift64(1)
	for i := 0; i < ops; i++ {
		s.Put(rng.Intn(keys), EncodeValue(rng.Next()))
	}
	for i := 0; i < s.NumShards(); i++ {
		if m := s.ShardAdaptor(i).Snapshot().Mode; m != bias.ModeNeutral {
			t.Fatalf("shard %d after write storm: mode = %v, want neutral", i, m)
		}
	}
	st := s.Stats().Total()
	if st.BiasMode != "neutral" || st.BiasFlips == 0 {
		t.Fatalf("stats after write storm: mode %q flips %d", st.BiasMode, st.BiasFlips)
	}

	// Read-heavy phase: shards promote back to biased.
	for i := 0; i < ops; i++ {
		s.Get(rng.Intn(keys))
	}
	for i := 0; i < s.NumShards(); i++ {
		if m := s.ShardAdaptor(i).Snapshot().Mode; m != bias.ModeBiased {
			t.Fatalf("shard %d after read phase: mode = %v, want biased", i, m)
		}
	}
}

// TestShardedPerShardDivergence is the case a global policy cannot express:
// reads everywhere, writes concentrated on one shard — that shard demotes
// while the others stay biased, and Total reports "mixed".
func TestShardedPerShardDivergence(t *testing.T) {
	s, err := NewSharded(4, mkAdaptive)
	if err != nil {
		t.Fatal(err)
	}
	// Find keys per shard.
	perShard := make([][]uint64, s.NumShards())
	for k := uint64(0); len(perShard[0]) < 64 || len(perShard[1]) < 64 ||
		len(perShard[2]) < 64 || len(perShard[3]) < 64; k++ {
		sh := s.ShardOf(k)
		if len(perShard[sh]) < 64 {
			perShard[sh] = append(perShard[sh], k)
		}
	}
	rng := xrand.NewXorShift64(2)
	for i := 0; i < 40000; i++ {
		sh := int(rng.Intn(4))
		ks := perShard[sh]
		k := ks[rng.Intn(uint64(len(ks)))]
		if sh == 0 {
			s.Put(k, EncodeValue(rng.Next())) // hot write shard
		} else {
			s.Get(k)
		}
	}
	if m := s.ShardAdaptor(0).Snapshot().Mode; m != bias.ModeNeutral {
		t.Fatalf("hot write shard: mode = %v, want neutral", m)
	}
	for i := 1; i < 4; i++ {
		if m := s.ShardAdaptor(i).Snapshot().Mode; m != bias.ModeBiased {
			t.Fatalf("read shard %d demoted to %v", i, m)
		}
	}
	if st := s.Stats().Total(); st.BiasMode != "mixed" {
		t.Fatalf("total bias_mode = %q, want mixed", st.BiasMode)
	}
}

// flipStorm builds a 4-shard adaptive engine and runs, until the returned
// stop is called, a flipper forcing shard modes and a harness driver of
// traffic over keys below keyspace whose seq readers and writers cross the
// flips.
func flipStorm(t *testing.T, seed, keyspace uint64) (s *Sharded, stop func()) {
	s, err := NewSharded(4, mkAdaptive)
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // flipper
		defer wg.Done()
		for i := 0; !done.Load(); i++ {
			s.ShardAdaptor(i % 4).ForceMode(bias.Mode(i / 4 % 2))
			runtime.Gosched()
		}
	}()
	d := newDriver(t, s, seed, 0, keyspace, false, readOps, writeOps)
	go func() { // traffic
		defer wg.Done()
		for !done.Load() {
			d.do(d.next())
		}
	}()
	return s, func() { done.Store(true); wg.Wait() }
}

// TestShardedStatsCoherentUnderFlips hammers Stats() under a flipStorm:
// every reported mode must be a real mode name, and per-shard flip counts
// must be monotonic across snapshots (a torn mode/flips pairing could violate
// monotonicity by pairing an old flips value with a new row).
func TestShardedStatsCoherentUnderFlips(t *testing.T) {
	s, stop := flipStorm(t, 3, 512)
	defer stop()
	valid := map[string]bool{"biased": true, "neutral": true}
	last := make([]uint64, 4)
	for snap := 0; snap < 2000; snap++ {
		st := s.Stats()
		for i, row := range st.Shards {
			if !valid[row.BiasMode] {
				t.Fatalf("snapshot %d shard %d: impossible bias_mode %q", snap, i, row.BiasMode)
			}
			if row.BiasFlips < last[i] {
				t.Fatalf("snapshot %d shard %d: flips went backwards %d -> %d",
					snap, i, last[i], row.BiasFlips)
			}
			last[i] = row.BiasFlips
		}
	}
}
