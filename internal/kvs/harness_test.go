package kvs

// The engine harness. BRAVO's bias is only worth having if the engine built on
// it still behaves exactly like a map behind one lock, so every randomized
// suite of this package draws its traffic from one seeded generator of ops
// over the whole Sharded API and checks it against one reference model: a
// plain map of the visible state. Each op carries apply, which issues it
// against the engine and checks what the engine answered, and fold, which
// applies its effect to the model. A suite is a configuration: which op
// families its drivers draw, over which keys, on how many goroutines, on
// which engine, and what it demands of the state at the end.
//
// Every value is a stormValue, so a read of a key no model speaks for — a key
// several goroutines write — still proves the copy is not torn or spliced.
//
// TTL determinism: wall-clock TTLs would make the model racy, so PutTTL is
// drawn at exactly two deadline classes — born expired (invisible at once)
// and never (a math.MaxInt64 TTL saturates to no deadline at all).

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/xrand"
)

type opKind uint8

const (
	opGet opKind = iota
	opGetInto
	opGetIntoH
	opMultiGet
	opMultiGetH
	opRange
	opPut
	opPutNever
	opPutExpired
	opDelete
	opMultiPut
	opMultiDelete
	opCAS
	opCASPoisoned
	opUpdate
	opTxn
	opTxnAbort
	opReap
	opCheckpoint
	opReopen
)

// The op families a configuration draws from.
var (
	readOps  = []opKind{opGet, opGetInto, opGetIntoH, opMultiGet, opMultiGetH, opRange}
	writeOps = []opKind{opPut, opPutNever, opPutExpired, opDelete, opMultiPut, opMultiDelete,
		opCAS, opCASPoisoned, opUpdate, opTxn, opTxnAbort, opReap}
	// lifeOps need a durable engine that one driver, on the test's own
	// goroutine, has to itself.
	lifeOps = []opKind{opCheckpoint, opReopen}
)

// opWeight is how often each kind is drawn relative to the rest of its mix.
// A checkpoint fsyncs an image of every shard, so the lifecycle ops are rare:
// one draw each in 472 of a durable sequential mix.
var opWeight = [...]int{
	opGet: 60, opGetInto: 30, opGetIntoH: 30, opMultiGet: 20, opMultiGetH: 20, opRange: 10,
	opPut: 80, opPutNever: 20, opPutExpired: 20, opDelete: 40, opMultiPut: 20, opMultiDelete: 20,
	opCAS: 20, opCASPoisoned: 10, opUpdate: 20, opTxn: 20, opTxnAbort: 10, opReap: 20,
	opCheckpoint: 1, opReopen: 1,
}

// errModelAbort is the deliberate abort of a drawn opTxnAbort.
var errModelAbort = errors.New("model: deliberate transaction abort")

// An op is one generated operation: apply issues it through a driver and
// checks the engine's answers against the driver's model; fold applies its
// effect to a model, and is nil for an op that changes no visible state.
type op struct {
	apply func(d *driver)
	fold  func(m map[uint64][]byte)
}

// A driver is one goroutine's side of a configuration: it draws ops over the
// keys [lo, lo+span) from a seeded rng and runs them against s through its
// own reader handle. When no other goroutine writes those keys it owns them:
// it checks every answer against its model m and folds every op into it.
// With m nil the keys are shared, and a read need only be a miss or some
// value a writer stored for that key.
type driver struct {
	t        *testing.T
	s        *Sharded
	rng      *xrand.XorShift64
	lo, span uint64
	mix      []opKind
	total    int
	drawn    [opReopen + 1]int
	m        map[uint64][]byte
	h        *rwl.Reader
	buf      []byte
}

func newDriver(t *testing.T, s *Sharded, seed, lo, span uint64, owned bool, families ...[]opKind) *driver {
	d := &driver{t: t, s: s, rng: xrand.NewXorShift64(seed), lo: lo, span: span,
		mix: slices.Concat(families...), h: rwl.NewReader()}
	for _, k := range d.mix {
		d.total += opWeight[k]
	}
	if owned {
		d.m = map[uint64][]byte{}
	}
	return d
}

// run draws and runs n ops, stopping early once the test has failed. On an
// adaptive engine it also forces every shard's bias mode every 400 ops: the
// mode must be invisible to semantics, so a divergence blames the flip.
func (d *driver) run(n int) {
	for i := 0; i < n && !d.t.Failed(); i++ {
		if i%400 == 200 && d.s.ShardAdaptor(0) != nil {
			mode := bias.Mode(d.rng.Intn(2))
			for sh := 0; sh < d.s.NumShards(); sh++ {
				d.s.ShardAdaptor(sh).ForceMode(mode)
			}
		}
		d.do(d.next())
	}
}

// do runs o against the engine and folds it into the model.
func (d *driver) do(o op) {
	o.apply(d)
	if d.m != nil && o.fold != nil {
		o.fold(d.m)
	}
}

func (d *driver) key() uint64           { return d.lo + d.rng.Next()%d.span }
func (d *driver) value(k uint64) []byte { return stormValue(k, d.rng.Next()) }

// keys draws 1 to max keys; from three on the last repeats the first, so the
// batch carries a duplicate whose later position must win.
func (d *driver) keys(max int) []uint64 {
	ks := make([]uint64, 1+d.rng.Intn(uint64(max)))
	for i := range ks {
		ks[i] = d.key()
	}
	if n := len(ks); n >= 3 {
		ks[n-1] = ks[0]
	}
	return ks
}

// owns reports whether d's model speaks for k.
func (d *driver) owns(k uint64) bool { return d.m != nil && k-d.lo < d.span }

// check fails the test unless one read of k is right: equal to the model
// when d owns k, else a miss or a value some writer stored for k.
func (d *driver) check(what string, k uint64, v []byte, ok bool) {
	if d.owns(k) {
		if w, wok := d.m[k]; ok != wok || !bytes.Equal(v, w) {
			d.t.Errorf("%s(%d) = %x/%v, model %x/%v", what, k, v, ok, w, wok)
		}
	} else if ok {
		if err := stormCheck(k, v); err != nil {
			d.t.Errorf("%s: %v", what, err)
		}
	}
}

// recheck demands, after a Checkpoint or a Reopen, that every read the model
// can make still agrees, served by the optimistic path.
func (d *driver) recheck(label string) {
	requireState(d.t, d.s, d.m, label)
	optimisticSweep(d.t, d.s, d.m, label)
}

// reopen closes the durable engine, opens its directory again with
// openTestKV's plain locks, and rechecks.
func (d *driver) reopen(label string) {
	if err := d.s.Close(); err != nil {
		d.t.Fatalf("%s: Close: %v", label, err)
	}
	d.s = openTestKV(d.t, d.s.Dir(), d.s.NumShards(), d.s.SyncPolicy())
	d.recheck(label)
}

// store is the fold of writing vs[i] to ks[i] in order, a nil value deleting.
func store(ks []uint64, vs [][]byte) func(map[uint64][]byte) {
	return func(m map[uint64][]byte) {
		for i, k := range ks {
			if vs[i] == nil {
				delete(m, k)
			} else {
				m[k] = vs[i]
			}
		}
	}
}

// next draws one op from d's mix.
func (d *driver) next() op {
	n := int(d.rng.Intn(uint64(d.total)))
	var kind opKind
	for _, kind = range d.mix {
		if n -= opWeight[kind]; n < 0 {
			break
		}
	}
	d.drawn[kind]++
	k := d.key()
	var o op
	switch kind {
	case opGet:
		o.apply = func(d *driver) {
			v, ok := d.s.Get(k)
			d.check("Get", k, v, ok)
		}
	case opGetInto, opGetIntoH:
		o.apply = func(d *driver) {
			var v []byte
			var ok bool
			if kind == opGetInto {
				v, ok = d.s.GetInto(k, d.buf)
			} else {
				v, ok = d.s.GetIntoH(d.h, k, d.buf)
			}
			d.check("GetInto", k, v, ok)
			d.buf = v[:0]
		}
	case opMultiGet, opMultiGetH:
		ks := d.keys(8)
		o.apply = func(d *driver) {
			var vs [][]byte
			if kind == opMultiGet {
				vs = d.s.MultiGet(ks)
			} else {
				vs = d.s.MultiGetH(d.h, ks)
			}
			for i, v := range vs {
				d.check("MultiGet", ks[i], v, v != nil)
			}
		}
	case opRange:
		// Half the draws read through Snapshot, whose per-shard copies are
		// Range's other consumer.
		viaSnapshot := d.rng.Intn(2) == 0
		o.apply = func(d *driver) {
			seen := 0
			visit := func(rk uint64, rv []byte) bool {
				if d.owns(rk) {
					seen++
				}
				d.check("Range", rk, rv, true)
				return true
			}
			if viaSnapshot {
				for rk, rv := range d.s.Snapshot() {
					visit(rk, rv)
				}
			} else {
				d.s.Range(visit)
			}
			if d.m != nil && seen != len(d.m) {
				d.t.Errorf("Range saw %d of the driver's keys, the model has %d", seen, len(d.m))
			}
		}
	case opPut, opPutNever:
		v := d.value(k)
		o.apply = func(d *driver) {
			if kind == opPut {
				d.s.Put(k, v)
			} else {
				d.s.PutTTL(k, v, math.MaxInt64)
			}
		}
		o.fold = func(m map[uint64][]byte) { m[k] = v }
	case opPutExpired:
		v := d.value(k)
		o.apply = func(d *driver) { d.s.PutTTL(k, v, -1) }
		o.fold = func(m map[uint64][]byte) { delete(m, k) }
	case opDelete:
		o.apply = func(d *driver) {
			if hit := d.s.Delete(k); d.m != nil && hit != (d.m[k] != nil) {
				d.t.Errorf("Delete(%d) = %v, model holds %x", k, hit, d.m[k])
			}
		}
		o.fold = func(m map[uint64][]byte) { delete(m, k) }
	case opMultiPut:
		ks := d.keys(8)
		vs := make([][]byte, len(ks))
		for i, bk := range ks {
			vs[i] = d.value(bk)
		}
		o.apply = func(d *driver) { d.s.MultiPut(ks, vs) }
		o.fold = store(ks, vs)
	case opMultiDelete:
		ks := d.keys(8)
		o.apply = func(d *driver) {
			want := 0 // a repeated key scores one hit
			for i, bk := range ks {
				if d.m[bk] != nil && !slices.Contains(ks[:i], bk) {
					want++
				}
			}
			if hit := d.s.MultiDelete(ks); d.m != nil && hit != want {
				d.t.Errorf("MultiDelete(%v) = %d, model holds %d of them", ks, hit, want)
			}
		}
		o.fold = store(ks, make([][]byte, len(ks)))
	case opCAS:
		nv := d.value(k)
		o.apply = func(d *driver) {
			old := d.m[k]
			if d.m == nil {
				old, _ = d.s.Get(k)
			}
			if swapped, err := d.s.CompareAndSwap(k, old, nv); err != nil || (d.m != nil && !swapped) {
				d.t.Errorf("matching CAS(%d) swapped=%v err=%v", k, swapped, err)
			}
		}
		o.fold = func(m map[uint64][]byte) { m[k] = nv }
	case opCASPoisoned:
		old, nv := d.value(k), d.value(k) // old's stamp is fresh: never stored
		o.apply = func(d *driver) {
			if swapped, err := d.s.CompareAndSwap(k, old, nv); err != nil || swapped {
				d.t.Errorf("poisoned CAS(%d) swapped=%v err=%v", k, swapped, err)
			}
		}
	case opUpdate:
		var nv []byte // nil: the body declines to write, a committed no-op
		if d.rng.Intn(4) != 0 {
			nv = d.value(k)
		}
		o.apply = func(d *driver) {
			if err := d.s.Update(k, func(cur []byte, ok bool) ([]byte, bool) {
				d.check("Update", k, cur, ok)
				return nv, nv != nil
			}); err != nil {
				d.t.Errorf("Update(%d): %v", k, err)
			}
		}
		if nv != nil {
			o.fold = func(m map[uint64][]byte) { m[k] = nv }
		}
	case opTxn, opTxnAbort:
		ks := d.keys(4)
		vs := make([][]byte, len(ks)) // a nil value stages a delete
		for i, bk := range ks {
			if d.rng.Intn(4) != 0 {
				vs[i] = d.value(bk)
			}
		}
		var want error
		if kind == opTxnAbort {
			want = errModelAbort
		} else {
			o.fold = store(ks, vs)
		}
		o.apply = func(d *driver) {
			err := d.s.Txn(ks, func(tx *Tx) error {
				for _, bk := range ks {
					v, ok := tx.Get(bk)
					d.check("Tx.Get", bk, v, ok)
				}
				for i, bk := range ks {
					if vs[i] == nil {
						tx.Delete(bk)
					} else {
						tx.Put(bk, vs[i])
					}
					if v, _ := tx.Get(bk); !bytes.Equal(v, vs[i]) {
						d.t.Errorf("Tx.Get(%d) = %x after staging %x", bk, v, vs[i])
					}
				}
				return want
			})
			if err != want {
				d.t.Errorf("Txn(%v) returned %v, want %v", ks, err, want)
			}
		}
	case opReap:
		o.apply = func(d *driver) { d.s.Reap(32) } // physical removal only
	case opCheckpoint:
		o.apply = func(d *driver) {
			if err := d.s.Checkpoint(); err != nil {
				d.t.Fatalf("Checkpoint: %v", err)
			}
			d.recheck("after Checkpoint")
		}
	case opReopen:
		o.apply = func(d *driver) { d.reopen("after Reopen") }
	}
	return o
}

// foldOps is the model after ops, folded in order into an empty map.
func foldOps(ops []op) map[uint64][]byte {
	m := map[uint64][]byte{}
	for _, o := range ops {
		if o.fold != nil {
			o.fold(m)
		}
	}
	return m
}

// requireState fails the test unless s's visible state equals want.
func requireState(t *testing.T, s *Sharded, want map[uint64][]byte, label string) {
	t.Helper()
	got := s.Snapshot()
	for k, w := range want {
		if g, ok := got[k]; !ok || !bytes.Equal(g, w) {
			t.Fatalf("%s: key %d = %x (present %v), want %x", label, k, g, ok, w)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: engine has %d visible keys, want %d", label, len(got), len(want))
	}
}

// optimisticSweep re-reads every model key (plus a probe of absent ones)
// on the quiescent engine and demands exact agreement served entirely by
// the zero-CAS path: every read optimistic, zero retries, zero fallbacks.
// With writers quiescent the seq counters cannot move, so any disagreement
// here is a stale-after-quiescence read — a seq-bracketing bug, not a
// tolerable race — and any retry or fallback means the counter was left
// odd by an unbalanced write section.
func optimisticSweep(t *testing.T, s *Sharded, want map[uint64][]byte, label string) {
	t.Helper()
	before := s.Stats().Total()
	for k, wv := range want {
		gv, ok := s.Get(k)
		if !ok || !bytes.Equal(gv, wv) {
			t.Fatalf("%s: optimistic Get(%d) = %x/%v, model %x", label, k, gv, ok, wv)
		}
	}
	const probes = 64
	for i := uint64(0); i < probes; i++ {
		if _, ok := s.Get(^i); ok { // ^i: far outside every schedule's key space
			t.Fatalf("%s: optimistic Get(%d) hit a key no schedule ever wrote", label, ^i)
		}
	}
	after := s.Stats().Total()
	if n := uint64(len(want) + probes); after.SeqReads-before.SeqReads != n {
		t.Fatalf("%s: only %d of %d sweep reads were served optimistically",
			label, after.SeqReads-before.SeqReads, n)
	}
	if after.SeqRetries != before.SeqRetries || after.SeqFallbacks != before.SeqFallbacks {
		t.Fatalf("%s: quiescent sweep collided (retries +%d, fallbacks +%d): a write section left the counter odd",
			label, after.SeqRetries-before.SeqRetries, after.SeqFallbacks-before.SeqFallbacks)
	}
}

// TestModelSequentialEquivalence: one driver owns every key and checks
// every answer as it goes. lockOnly pins the control arm — the same schedule
// with the optimistic path disabled, so a divergence blames the right read
// path — and the adaptive arms take run's forced mid-schedule bias flips.
func TestModelSequentialEquivalence(t *testing.T) {
	iters := 6000
	if testing.Short() {
		iters = 800
	}
	for _, tc := range []struct {
		name     string
		mk       rwl.Factory
		lockOnly bool
	}{
		{"go-rw", mkStd, false},
		{"bravo-ba", mkBravo, false},
		{"go-rw-lockonly", mkStd, true},
		{"adaptive-ba", mkAdaptive, false},
		{"adaptive-ba-lockonly", mkAdaptive, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSharded(8, tc.mk)
			if err != nil {
				t.Fatal(err)
			}
			if tc.lockOnly {
				s.SetSeqReadAttempts(0)
			}
			d := newDriver(t, s, 0xB1A5ED, 0, 256, true, readOps, writeOps)
			d.run(iters)
			requireState(t, s, d.m, "sequential final")
			if tc.lockOnly {
				if n := s.Stats().Total().SeqReads; n != 0 {
					t.Fatalf("lock-only arm served %d optimistic reads", n)
				}
				return
			}
			if s.Stats().Total().SeqReads == 0 {
				t.Fatal("schedule never exercised the optimistic read path")
			}
			optimisticSweep(t, s, d.m, "sequential sweep")
		})
	}
}

// TestModelSequentialEquivalenceDurable runs the sequential configuration on
// a durable engine with Checkpoint and Reopen among the drawn ops, each
// followed by a recheck of every read, then closes, reopens, and demands the
// recovered store still equal the model.
func TestModelSequentialEquivalenceDurable(t *testing.T) {
	iters := 4000
	if testing.Short() {
		iters = 600
	}
	d := newDriver(t, openTestKV(t, t.TempDir(), 8, SyncNone), 0xD0_0D, 0, 256, true, readOps, writeOps, lifeOps)
	d.run(iters)
	if d.drawn[opCheckpoint] == 0 || d.drawn[opReopen] == 0 {
		t.Fatalf("schedule drew %d checkpoints and %d reopens", d.drawn[opCheckpoint], d.drawn[opReopen])
	}
	d.recheck("durable pre-close")
	d.reopen("recovered")
	if err := d.s.Close(); err != nil {
		t.Fatal(err)
	}
}

// runConcurrent storms s with workers that each own 128 keys and check them,
// two readers of every key checking stormValues only, and on adaptive engines
// a flipper forcing shard modes under all of them; then it demands the final
// state equal the merged models, and returns a driver that owns them all.
// Run under -race (CI does), this is also the engine's data-race
// certification.
func runConcurrent(t *testing.T, s *Sharded, workers, iters int) *driver {
	t.Helper()
	const span = 128
	var stop atomic.Bool
	var wg, bg sync.WaitGroup
	for r := 0; r < 2; r++ {
		// Bounded, not free-running: on a single-CPU host an unbounded read
		// loop against spinning substrates starves the writers it races.
		rd := newDriver(t, s, uint64(1000+r), 0, uint64(workers)*span, false, readOps)
		bg.Add(1)
		go func() { defer bg.Done(); rd.run(iters) }()
	}
	if s.ShardAdaptor(0) != nil {
		bg.Add(1)
		go func() {
			defer bg.Done()
			rng := xrand.NewXorShift64(0xF11B)
			for i := 0; !stop.Load(); i++ {
				s.ShardAdaptor(int(rng.Intn(uint64(s.NumShards())))).ForceMode(bias.Mode(i % 2))
				runtime.Gosched()
			}
		}()
	}
	ds := make([]*driver, workers)
	for w := range ds {
		ds[w] = newDriver(t, s, uint64(w)*0x9E3779B9+7, uint64(w)*span, span, true, readOps, writeOps)
		wg.Add(1)
		go func(d *driver) { defer wg.Done(); d.run(iters) }(ds[w])
	}
	wg.Wait()
	stop.Store(true)
	bg.Wait()
	all := &driver{t: t, s: s, m: map[uint64][]byte{}}
	for _, d := range ds {
		for k, v := range d.m {
			all.m[k] = v
		}
	}
	if s.Stats().Total().SeqReads == 0 {
		t.Error("concurrent schedule never exercised the optimistic read path")
	}
	all.recheck("concurrent final")
	return all
}

func TestModelConcurrentEquivalence(t *testing.T) {
	iters := 3000
	if testing.Short() {
		iters = 400
	}
	for _, tc := range []struct {
		name string
		mk   rwl.Factory
	}{
		{"go-rw", mkStd},
		{"bravo-ba", mkBravo},
		{"adaptive-ba", mkAdaptive},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSharded(8, tc.mk)
			if err != nil {
				t.Fatal(err)
			}
			runConcurrent(t, s, 4, iters)
		})
	}
}

// TestModelConcurrentEquivalenceDurable is the concurrent storm over a
// live WAL, plus recovery: the reopened store must equal the model the
// concurrent schedule determined.
func TestModelConcurrentEquivalenceDurable(t *testing.T) {
	iters := 1500
	if testing.Short() {
		iters = 300
	}
	d := runConcurrent(t, openTestKV(t, t.TempDir(), 8, SyncNone), 4, iters)
	d.reopen("recovered concurrent")
	if err := d.s.Close(); err != nil {
		t.Fatal(err)
	}
}
