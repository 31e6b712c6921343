package cluster

// Kill-and-promote chaos certification. Each schedule runs one dedicated
// writer per partition (so every commit's (epoch, shard, lsn) attribution
// is exact — the token said so, and nothing else writes that partition)
// while the driver kills and promotes random partitions' primaries at
// random points in the traffic, gracefully (quiesced, caught up: the cut
// must equal the full history — zero loss) or abruptly (mid-traffic,
// possibly with a follower deliberately lagging: acknowledged writes past
// the cut are lost, and must be *exactly* the ones past the cut).
//
// Three oracles certify every schedule:
//
//   - the model oracle: a single-mutex journal of every acknowledged
//     write, truncated at each promotion cut, replayed per shard, must
//     equal the surviving cluster state key for key — no divergence;
//   - the epoch (fencing) oracle: a deposed primary's writes are all
//     rejected, its per-shard LSNs never advance again, and its engine
//     never appends another WAL record or byte — a revived stale primary
//     provably cannot commit;
//   - the lost/dup/reorder oracle: per shard, the journal's (epoch, lsn)
//     sequence is gapless — consecutive within an epoch, and each
//     promoted epoch's first record lands at exactly cut+1 — so no
//     acknowledged record was dropped, doubled, or reordered by promotion.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/kvs"
	"github.com/bravolock/bravo/internal/wire"
	"github.com/bravolock/bravo/internal/xrand"
)

// journalEntry is one acknowledged mutation: the token the cluster handed
// back, plus what it meant. val == nil records a delete.
type journalEntry struct {
	epoch uint64
	lsn   uint64
	shard int // partition-local
	key   uint64
	val   []byte
}

// partitionJournal is one partition's commit history, appended by that
// partition's single writer in commit order.
type partitionJournal struct {
	mu      sync.Mutex
	entries []journalEntry
}

func (j *partitionJournal) append(e journalEntry) {
	j.mu.Lock()
	j.entries = append(j.entries, e)
	j.mu.Unlock()
}

// chaosWriter drives random traffic at one partition, journaling every
// acknowledged write with its token.
type chaosWriter struct {
	t       *testing.T
	c       *Cluster
	pi      int
	keys    []uint64 // keys this partition owns
	rng     *xrand.XorShift64
	journal *partitionJournal
	shardOf func(uint64) int
}

func newChaosWriter(t *testing.T, c *Cluster, pi int, keyspace uint64, seed uint64) *chaosWriter {
	w := &chaosWriter{
		t: t, c: c, pi: pi,
		rng:     xrand.NewXorShift64(seed),
		journal: &partitionJournal{},
		shardOf: c.Member(pi).Engine().ShardOf, // pure in key and shard count
	}
	for k := uint64(0); k < keyspace; k++ {
		if c.Partition(k) == pi {
			w.keys = append(w.keys, k)
		}
	}
	if len(w.keys) == 0 {
		t.Fatalf("partition %d owns no keys in 0..%d", pi, keyspace)
	}
	return w
}

func (w *chaosWriter) key() uint64 { return w.keys[w.rng.Intn(uint64(len(w.keys)))] }

// step performs one random acknowledged op and journals it.
func (w *chaosWriter) step() {
	switch w.rng.Intn(10) {
	case 0, 1: // delete (logged even on a miss)
		k := w.key()
		resp, err := write(w.c, wire.Request{Op: wire.OpDelete, Key: k})
		if err != nil {
			w.t.Errorf("partition %d: Delete(%d): %v", w.pi, k, err)
			return
		}
		tok := resp.LSNs[0]
		w.journal.append(journalEntry{epoch: tok.Epoch, lsn: tok.LSN, shard: w.shardOf(k), key: k})
	case 2, 3: // MultiPut within the partition: one record per shard group
		n := 2 + int(w.rng.Intn(4))
		keys := make([]uint64, n)
		vals := make([][]byte, n)
		for i := range keys {
			keys[i] = w.key()
			vals[i] = kvs.EncodeValue(w.rng.Next())
		}
		resp, err := write(w.c, wire.Request{Op: wire.OpMPut, Keys: keys, Values: vals})
		if err != nil {
			w.t.Errorf("partition %d: MultiPut: %v", w.pi, err)
			return
		}
		byShard := map[int]ShardLSN{}
		for _, tok := range resp.LSNs {
			_, sh, ok := w.c.SplitGlobalShard(tok.Shard)
			if !ok {
				w.t.Errorf("partition %d: token names global shard %d out of range", w.pi, tok.Shard)
				return
			}
			byShard[sh] = tok
		}
		// Later duplicates of a key within the batch win (engine batch
		// semantics: applied in order), so journal in order.
		for i, k := range keys {
			tok, ok := byShard[w.shardOf(k)]
			if !ok {
				w.t.Errorf("partition %d: batch touched shard %d but no token covers it", w.pi, w.shardOf(k))
				return
			}
			w.journal.append(journalEntry{epoch: tok.Epoch, lsn: tok.LSN, shard: w.shardOf(k), key: k, val: vals[i]})
		}
	default: // put
		k := w.key()
		v := kvs.EncodeValue(w.rng.Next())
		tok, err := w.c.Put(k, v, 0)
		if err != nil {
			w.t.Errorf("partition %d: Put(%d): %v", w.pi, k, err)
			return
		}
		w.journal.append(journalEntry{epoch: tok.Epoch, lsn: tok.LSN, shard: w.shardOf(k), key: k, val: v})
	}
}

// survived reports whether a journaled commit is part of the surviving
// history: bound by the first promotion cut after its epoch, exactly the
// rule Read adjudicates client tokens with.
func survived(e journalEntry, cuts map[uint64][]uint64, finalEpoch uint64) bool {
	for epoch := e.epoch + 1; epoch <= finalEpoch; epoch++ {
		if cut, ok := cuts[epoch]; ok {
			return e.lsn <= cut[e.shard]
		}
	}
	return true
}

// replay folds a partition's journal — truncated at the promotion cuts —
// into per-shard reference maps: the model the promoted state must equal.
func replay(j *partitionJournal, shards int, cuts map[uint64][]uint64, finalEpoch uint64) ([]map[uint64][]byte, int) {
	refs := make([]map[uint64][]byte, shards)
	for i := range refs {
		refs[i] = map[uint64][]byte{}
	}
	lost := 0
	for _, e := range j.entries {
		if !survived(e, cuts, finalEpoch) {
			lost++
			continue
		}
		if e.val == nil {
			delete(refs[e.shard], e.key)
		} else {
			refs[e.shard][e.key] = e.val
		}
	}
	return refs, lost
}

// assertNoDivergence is the model oracle: the surviving engine state must
// equal the truncated journal replay, shard by shard, key by key.
func assertNoDivergence(t *testing.T, c *Cluster, pi int, refs []map[uint64][]byte, label string) {
	t.Helper()
	eng := c.Member(pi).Engine()
	for sh, want := range refs {
		got := eng.SnapshotShard(sh)
		if len(got) != len(want) {
			t.Errorf("%s: partition %d shard %d: engine has %d keys, model %d", label, pi, sh, len(got), len(want))
		}
		for k, wv := range want {
			if gv, ok := got[k]; !ok || !bytes.Equal(gv, wv) {
				t.Errorf("%s: partition %d shard %d key %d = %x (present %v), model %x", label, pi, sh, k, gv, ok, wv)
			}
		}
	}
}

// assertGaplessLSNs is the lost/dup/reorder oracle: all writes to a
// partition flow through its journal, so per shard the journal must hold
// every record exactly once, in order — consecutive LSNs within an epoch,
// with each promoted epoch opening at exactly its cut + 1.
func assertGaplessLSNs(t *testing.T, j *partitionJournal, pi, shards int, cuts map[uint64][]uint64) {
	t.Helper()
	type pos struct {
		epoch, lsn uint64
	}
	last := make([]pos, shards)
	for i := range last {
		last[i] = pos{epoch: 1}
	}
	for _, e := range j.entries {
		p := &last[e.shard]
		if e.epoch == p.epoch && e.lsn == p.lsn {
			continue // same record (another key of one batch group)
		}
		base := p.lsn
		if e.epoch != p.epoch {
			cut, ok := cuts[e.epoch]
			if !ok {
				t.Errorf("partition %d shard %d: journal entered epoch %d with no recorded promotion", pi, e.shard, e.epoch)
				return
			}
			if cut[e.shard] < p.lsn {
				// The cut dropped acknowledged records; the new epoch resumes
				// from the cut, not from our high-water mark.
				base = cut[e.shard]
			}
		}
		if e.lsn != base+1 {
			t.Errorf("partition %d shard %d: LSN %d follows %d in epoch %d (gap or reorder)", pi, e.shard, e.lsn, base, e.epoch)
			return
		}
		*p = pos{epoch: e.epoch, lsn: e.lsn}
	}
}

// corpseState freezes a deposed primary's observable commit surface.
type corpseState struct {
	corpse *Member
	lsns   []uint64
	wal    walAppended
}

func captureCorpse(t *testing.T, m *Member) corpseState {
	t.Helper()
	if !m.Fenced() {
		t.Errorf("partition %d epoch %d: deposed member is not fenced", m.partition, m.Epoch())
	}
	st := corpseState{corpse: m, wal: walAppendedBy(m)}
	for sh := 0; sh < m.Engine().NumShards(); sh++ {
		st.lsns = append(st.lsns, m.Engine().ShardLSN(sh))
	}
	return st
}

// hammer is the epoch oracle's active half: throw every mutation at the
// corpse and require each to bounce off the fence.
func (st corpseState) hammer(t *testing.T, rng *xrand.XorShift64) {
	t.Helper()
	m := st.corpse
	assertFenced(t, m, rng.Next()%64)
	if _, err := m.reap(128); err != ErrFenced {
		t.Errorf("fenced Reap: err = %v, want ErrFenced", err)
	}
}

// check is the epoch oracle's passive half: after the hammering (and any
// amount of cluster traffic), the corpse's LSNs and WAL are exactly where
// the fence left them.
func (st corpseState) check(t *testing.T) {
	t.Helper()
	for _, d := range st.drift() {
		t.Error(d)
	}
}

// drift lists how the corpse moved since it was captured.
func (st corpseState) drift() []string {
	m := st.corpse
	var moved []string
	for sh, want := range st.lsns {
		if got := m.Engine().ShardLSN(sh); got != want {
			moved = append(moved, fmt.Sprintf("partition %d epoch %d shard %d: corpse LSN advanced %d → %d", m.partition, m.Epoch(), sh, want, got))
		}
	}
	if got := walAppendedBy(m); got != st.wal {
		moved = append(moved, fmt.Sprintf("partition %d epoch %d: corpse WAL appended %+v → %+v", m.partition, m.Epoch(), st.wal, got))
	}
	return moved
}

// walAppended is what a member's engine has appended to its logs — the
// durable evidence a fenced primary committed nothing. It is counted, not
// read off the files: an open log's size is its mapped reservation.
type walAppended struct{ records, bytes uint64 }

func walAppendedBy(m *Member) walAppended {
	tot := m.Engine().Stats().Total()
	return walAppended{tot.WALRecords, tot.WALBytes}
}

// TestCorpseCheckSeesACommit is the epoch oracle's negative control: one
// write applied to a deposed primary's engine directly, past its fence, is
// a commit the corpse check must report, as an advanced LSN and as WAL
// appended. (The log file's size does not move: it is the reservation.)
func TestCorpseCheckSeesACommit(t *testing.T) {
	c, err := Open(Config{Partitions: 1, Shards: 2, Followers: 1, Dir: t.TempDir(), Policy: kvs.SyncNone, RetryInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Put(1, []byte("before"), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	old := c.Member(0)
	mustFailover(t, c, 0)
	st := captureCorpse(t, old)
	if d := st.drift(); len(d) != 0 {
		t.Fatalf("an untouched corpse drifted: %v", d)
	}
	old.Engine().Put(1, []byte("stale"))
	if d := st.drift(); len(d) != 2 || !strings.Contains(d[1], "corpse WAL appended") {
		t.Fatalf("a commit on the corpse drifted %v, want its LSN and its WAL", d)
	}
}

// TestCorpseCloseCommitsNothing: a write acknowledged before the fence
// survives the failover on the promoted primary, and closing the corpse
// appends nothing to the deposed primary's log.
func TestCorpseCloseCommitsNothing(t *testing.T) {
	c, err := Open(Config{Partitions: 1, Shards: 2, Followers: 1, Dir: t.TempDir(), Policy: kvs.SyncNone, RetryInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Put(5, []byte("before"), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	old := c.Member(0)
	mustFailover(t, c, 0)
	st := captureCorpse(t, old)
	if err := old.Close(); err != nil {
		t.Fatalf("corpse Close: %v", err)
	}
	st.check(t)
	if v, ok := c.Get(nil, 5, nil); !ok || string(v) != "before" {
		t.Fatalf("an acknowledged write after the failover = %q, %v", v, ok)
	}
}

// mustFailover promotes, retrying while no follower has bootstrapped the
// promoted base yet (ErrNotReady — the primary is still alive and serving,
// so eligibility is a matter of milliseconds).
func mustFailover(t *testing.T, c *Cluster, pi int) uint64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		epoch, err := c.Failover(pi)
		if err == nil {
			return epoch
		}
		if !errors.Is(err, ErrNotReady) || time.Now().After(deadline) {
			t.Fatalf("Failover(%d): %v", pi, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// chaosSchedule is one randomized kill-and-promote run; it returns how
// many acknowledged commits the schedule lost to abrupt cuts (for the
// aggregate loss/zero-loss accounting in the driver).
func chaosSchedule(t *testing.T, seed uint64) (lost, failovers int) {
	rng := xrand.NewXorShift64(seed)
	partitions := 2 + int(rng.Intn(2)) // 2 or 3
	c, err := Open(Config{
		Partitions:    partitions,
		Shards:        2,
		Followers:     2,
		Dir:           t.TempDir(),
		Policy:        kvs.SyncNone,
		RetryInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	writers := make([]*chaosWriter, partitions)
	for pi := range writers {
		writers[pi] = newChaosWriter(t, c, pi, 192, seed^uint64(pi)<<32^0xA11CE)
	}
	var corpses []corpseState

	rounds := 1 + int(rng.Intn(2))
	for round := 0; round < rounds; round++ {
		// A burst of quiet traffic, then a failover under live fire.
		for i := 0; i < 8+int(rng.Intn(24)); i++ {
			writers[rng.Intn(uint64(partitions))].step()
		}
		victim := int(rng.Intn(uint64(partitions)))
		graceful := rng.Intn(2) == 0
		if graceful {
			// Planned handoff: quiesce, catch the followers up, promote.
			if err := c.WaitCaughtUp(10 * time.Second); err != nil {
				t.Fatal(err)
			}
		} else if rng.Intn(2) == 0 {
			// Make the cut lossy on purpose: lag one follower, and keep
			// writing right up to (and across) the kill.
			c.Followers(victim)[int(rng.Intn(2))].Stop()
			for i := 0; i < 6; i++ {
				writers[victim].step()
			}
		}

		old := c.Member(victim)
		var wg sync.WaitGroup
		if !graceful {
			// Live fire: every partition keeps writing while the victim is
			// killed and promoted. Routed writes must never fail — they block
			// on the promotion and land in the new epoch.
			for pi := range writers {
				wg.Add(1)
				go func(w *chaosWriter) {
					defer wg.Done()
					for i := 0; i < 10; i++ {
						w.step()
					}
				}(writers[pi])
			}
		}
		mustFailover(t, c, victim)
		failovers++
		wg.Wait()

		// The deposed primary joins the corpse pool; hammer every corpse so
		// far and re-verify none of them ever moved.
		corpses = append(corpses, captureCorpse(t, old))
		for _, st := range corpses {
			st.hammer(t, rng)
			st.check(t)
		}
	}

	// Post-chaos traffic must route cleanly into the promoted epochs.
	for i := 0; i < 16; i++ {
		writers[rng.Intn(uint64(partitions))].step()
	}

	// Adjudicate every partition against the oracles.
	for pi, w := range writers {
		finalEpoch := c.Member(pi).Epoch()
		cuts := map[uint64][]uint64{}
		for e := uint64(2); e <= finalEpoch; e++ {
			if cut := c.Cut(pi, e); cut != nil {
				cuts[e] = cut
			}
		}
		refs, nlost := replay(w.journal, c.ShardsPerPartition(), cuts, finalEpoch)
		lost += nlost
		assertNoDivergence(t, c, pi, refs, fmt.Sprintf("seed %#x", seed))
		assertGaplessLSNs(t, w.journal, pi, c.ShardsPerPartition(), cuts)

		// Token adjudication matches the survival rule: a sample of journal
		// entries presented back as read tokens must pass iff they survived.
		for i, e := range w.journal.entries {
			if i%7 != 0 {
				continue
			}
			terr := readToken(t, c, e.epoch, e.lsn, e.key)
			if survived(e, cuts, finalEpoch) {
				if terr != nil {
					t.Errorf("seed %#x: surviving token (epoch %d, lsn %d) rejected: %v", seed, e.epoch, e.lsn, terr)
				}
			} else if terr == nil || !terr.Conflict {
				t.Errorf("seed %#x: lost token (epoch %d, lsn %d) not conflicted: %v", seed, e.epoch, e.lsn, terr)
			}
		}
	}
	// One last corpse sweep: all the traffic above moved nothing stale.
	for _, st := range corpses {
		st.check(t)
	}
	if t.Failed() {
		t.Fatalf("seed %#x: schedule diverged", seed)
	}
	return lost, failovers
}

// TestChaosKillAndPromote runs the randomized schedules — at least 100 in
// full mode, certifying zero divergence between the surviving cluster
// state and the cut-truncated model across every one of them.
func TestChaosKillAndPromote(t *testing.T) {
	schedules := 100
	if testing.Short() {
		schedules = 8
	}
	var totalLost, totalFailovers, lossy int
	for s := 0; s < schedules; s++ {
		seed := 0xC1A05<<32 | uint64(s)
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			lost, fo := chaosSchedule(t, seed)
			totalLost += lost
			totalFailovers += fo
			if lost > 0 {
				lossy++
			}
		})
	}
	t.Logf("%d schedules, %d failovers: %d schedules lost %d acknowledged commits to abrupt cuts (all adjudicated)",
		schedules, totalFailovers, lossy, totalLost)
	if totalFailovers < schedules {
		t.Fatalf("only %d failovers across %d schedules", totalFailovers, schedules)
	}
}

// TestChaosGracefulHandoffZeroLoss pins the planned-handoff guarantee the
// randomized suite only samples: quiesce, WaitCaughtUp, failover — the cut
// equals the full history and not one acknowledged commit is lost.
func TestChaosGracefulHandoffZeroLoss(t *testing.T) {
	rounds := 20
	if testing.Short() {
		rounds = 4
	}
	c, err := Open(Config{
		Partitions: 2, Shards: 2, Followers: 2,
		Dir: t.TempDir(), Policy: kvs.SyncNone, RetryInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	writers := []*chaosWriter{
		newChaosWriter(t, c, 0, 192, 0x60D1),
		newChaosWriter(t, c, 1, 192, 0x60D2),
	}
	rng := xrand.NewXorShift64(0x60D0)
	for round := 0; round < rounds; round++ {
		for i := 0; i < 12; i++ {
			writers[rng.Intn(2)].step()
		}
		victim := int(rng.Intn(2))
		if err := c.WaitCaughtUp(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Failover(victim); err != nil {
			t.Fatal(err)
		}
	}
	for pi, w := range writers {
		finalEpoch := c.Member(pi).Epoch()
		cuts := map[uint64][]uint64{}
		for e := uint64(2); e <= finalEpoch; e++ {
			cuts[e] = c.Cut(pi, e)
		}
		refs, lost := replay(w.journal, c.ShardsPerPartition(), cuts, finalEpoch)
		if lost != 0 {
			t.Errorf("partition %d: graceful handoffs lost %d acknowledged commits", pi, lost)
		}
		assertNoDivergence(t, c, pi, refs, "graceful")
		assertGaplessLSNs(t, w.journal, pi, c.ShardsPerPartition(), cuts)
	}
}
