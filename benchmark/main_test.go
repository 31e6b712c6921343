package main

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// smoke is every workload at 1/100 of its frozen count, on a seed that is
// not the default.
var smoke = runOpts{seed: 7, seconds: 0.05, scale: 100, workers: defaultWorkers, setups: 1}

func needCores(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("the benchmark refuses to run on one CPU")
	}
}

func checkReport(t *testing.T, rep report, defs []metricDef) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 {
		t.Errorf("%s: correct=%v failed=%d of %d: %s", rep.Workload, rep.Correct, rep.Failed, rep.Attempted, rep.FirstErr)
	}
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d named", rep.Workload, len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.unit {
			t.Errorf("%s: metric %s = %+v (present %v), want a finite value in %s", rep.Workload, d.name, m, ok, d.unit)
		}
	}
}

func TestEveryWorkloadReportsEveryEndToEndMetric(t *testing.T) {
	needCores(t)
	for _, name := range workloadNames {
		rep := newReport(runWorkload(name, smoke), endToEnd)
		checkReport(t, rep, endToEnd)
		for _, d := range endToEnd {
			if rep.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.name, rep.Metrics[d.name].Value)
			}
		}
	}
}

func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	needCores(t)
	o := smoke
	o.seconds = 0.5 // the traced run measures at a tenth of this
	rep := tracedRun("engine-write", o, measureLayers(o))
	checkReport(t, rep, perLayer)
	if rep.Metrics["kvs.wal_errors"].Value != 0 {
		t.Errorf("kvs.wal_errors = %v", rep.Metrics["kvs.wal_errors"].Value)
	}
}

// TestNamesMatchBenchmarkJSON: the workload and metric names the program
// prints are the ones BENCHMARK.json promises, in the same order and units.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bj, err := readBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, js []benchMetric, defs []metricDef) {
		if len(js) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(js), len(defs))
		}
		for i, m := range js {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestSameSeedSameOperations(t *testing.T) {
	wl := &engineWL{write: true}
	p := wl.plan()
	cdf := zipfCDF(p.keys)
	hash := func(seed uint64) uint64 {
		return tapeHash([][]uint32{genTape(seed, 0, 1<<12, p.mix, cdf), genTape(seed, 1, 1<<12, p.mix, cdf)})
	}
	if a, b := hash(7), hash(7); a != b {
		t.Errorf("seed 7 gave op-sequence hashes %x and %x", a, b)
	}
	if a, b := hash(7), hash(8); a == b {
		t.Errorf("seeds 7 and 8 gave the same op-sequence hash %x", a)
	}
}

// TestOneWorkerCountsRepeatExactly: with one client and no timers the WAL
// counts are a property of the operation sequence, so two runs agree to the
// last digit — the kind of count a later change may rest a claim on.
func TestOneWorkerCountsRepeatExactly(t *testing.T) {
	needCores(t)
	o := smoke
	o.workers = 1
	a, b := runWorkload("engine-write", o), runWorkload("engine-write", o)
	for _, k := range []string{"kvs.wal_bytes_per_user_byte", "kvs.wal_keys_per_record"} {
		if a.metrics[k] != b.metrics[k] || a.metrics[k] == 0 {
			t.Errorf("%s: %v then %v", k, a.metrics[k], b.metrics[k])
		}
	}
	if a.failed+b.failed != 0 {
		t.Errorf("failures: %s / %s", a.firstErr, b.firstErr)
	}
}

// TestGeneratorAllocatesNothing drives the tape against a target that does
// nothing: decoding entries, stamping values and consulting the oracle must
// not allocate, so every allocation a run counts is the system's.
func TestGeneratorAllocatesNothing(t *testing.T) {
	wl := &engineWL{write: true}
	p := wl.plan()
	tape := genTape(7, 0, 1<<12, p.mix, zipfCDF(p.keys))
	w := newWorker(0, 2, p.keys, tape, 16, 1)
	w.rd.buf, w.wr.buf = make([]uint32, 1<<10), make([]uint32, 1<<10)
	w.sampling = true
	drive := func(w *worker, lo, hi int) int {
		i := lo
		for i < hi {
			ent := w.tape[i]
			kind, idx := opKind(ent>>24), ent&tapeKeyMask
			if w.timed() {
				w.rd.add(1)
			}
			switch kind {
			case opGet:
				want, exact := w.expect(idx)
				encodeValue(w.vals[0], uint64(idx), want)
				w.verify(idx, w.vals[0], true, want, exact)
				i++
			case opPut, opCAS:
				w.nextValue(w.val, w.own(idx))
				w.done(1)
				i++
			case opMPut:
				w.batch(i, maxBatch, true)
				w.stampBatch()
				w.done(maxBatch)
				i += maxBatch
			}
		}
		return i
	}
	if n := testing.AllocsPerRun(5, func() { walk(w, 0, len(tape), drive) }); n != 0 {
		t.Errorf("generator allocates %v times per tape pass", n)
	}
	if n, first := w.failures(); n != 0 {
		t.Errorf("oracle rejected its own values: %s", first)
	}
}

// hung is a workload whose second round never returns: what a multi-core
// lock hang looks like from outside.
type hung struct{ release chan struct{} }

func (h *hung) plan() plan             { return plan{tapeLen: 1 << 10, passes: 1} }
func (h *hung) setup(*runState) error  { return nil }
func (h *hung) finish(*runState) error { return nil }
func (h *hung) teardown(*runState)     {}
func (h *hung) round(rs *runState, r int) (time.Duration, bool) {
	return rs.parallel(func(w *worker) {
		if r == 1 && w.id == 1 {
			<-h.release
		}
		w.done(100)
		w.issued.Store(w.keyOps)
	}), true
}

// TestWatchdogReportsAHangAsFailures: past its deadline a run is reported,
// not waited for, and the operations it never issued count as failed.
func TestWatchdogReportsAHangAsFailures(t *testing.T) {
	h := &hung{release: make(chan struct{})}
	defer close(h.release)
	o := smoke
	o.deadline = 200 * time.Millisecond
	res := runWith("hung", h, o)
	if res.correct || !res.timedOut || res.failed == 0 || res.attempted <= res.failed {
		t.Errorf("correct=%v timedOut=%v failed=%d attempted=%d: want a timed-out, partly failed run", res.correct, res.timedOut, res.failed, res.attempted)
	}
	if res.rounds != 1 {
		t.Errorf("%d finished rounds reported, want the 1 that completed", res.rounds)
	}
}

// slow is a workload that is late rather than hung: when the watchdog fires
// its finish is still failing operations and recording measurements.
type slow struct {
	hung
	busy chan struct{} // closed once finish is under way
}

func (s *slow) round(rs *runState, r int) (time.Duration, bool) {
	return rs.parallel(func(w *worker) { w.done(100) }), true
}

func (s *slow) finish(rs *runState) error {
	close(s.busy)
	for i := 0; ; i++ {
		select {
		case <-s.release:
			return nil
		default:
			rs.extra["kvs.checkpoint_ms"] = float64(i)
			rs.verifyOps++
			rs.workers[0].failf("late failure %d", i)
		}
	}
}

// TestWatchdogResultDoesNotTouchALiveRun: the result of a timed-out run is
// built from synchronised state only (run under -race), and is the caller's
// alone to read while the abandoned run goes on.
func TestWatchdogResultDoesNotTouchALiveRun(t *testing.T) {
	s := &slow{hung: hung{release: make(chan struct{})}, busy: make(chan struct{})}
	defer close(s.release)
	o := smoke
	o.deadline = 200 * time.Millisecond
	res := runWith("slow", s, o)
	<-s.busy
	rep := newReport(res, endToEnd)
	if rep.Correct || !rep.TimedOut || rep.Failed == 0 {
		t.Errorf("correct=%v timedOut=%v failed=%d: want a timed-out run with the late failures counted", rep.Correct, rep.TimedOut, rep.Failed)
	}
	if _, ok := res.metrics["kvs.checkpoint_ms"]; ok {
		t.Error("a measurement the live run is still writing was reported")
	}
	if v := rep.Metrics["ops_per_s"].Value; v <= 0 {
		t.Errorf("ops_per_s = %v: the finished rounds were not reported", v)
	}
}

func TestValueRoundTripAndTearDetection(t *testing.T) {
	v := make([]byte, valueSize)
	encodeValue(v, 42, 9)
	if seq, ok := decodeValue(v, 42); !ok || seq != 9 {
		t.Fatalf("decode = %d, %v", seq, ok)
	}
	if _, ok := decodeValue(v, 43); ok {
		t.Error("value for key 42 accepted as key 43")
	}
	w := make([]byte, valueSize)
	encodeValue(w, 42, 10)
	copy(v[64:], w[64:]) // half of one write, half of the next
	if _, ok := decodeValue(v, 42); ok {
		t.Error("torn value accepted")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
