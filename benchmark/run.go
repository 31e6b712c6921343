package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bravolock/bravo"
)

// The run driver: what every workload shares. A run is
//
//	generate tapes → (set up, tear down) × setups, keeping the last →
//	equal fixed-count rounds until the time budget is spent → finish
//	(post-run verification) → tear down
//
// under a watchdog. Workloads plug in through the workload interface.

// defaultWorkers is W: the closed-loop clients every workload runs.
const defaultWorkers = 2

// shards and mkLock are the configuration cmd/kvserv ships: 16 shards of
// bravo-go. Locks over pfq (ba, bravo-ba*, adaptive-ba) hang at
// GOMAXPROCS >= 2 (ROADMAP open item 0), so the lock is a constant, not a
// flag.
const (
	shards   = 16
	lockName = "bravo-go"
)

func mkLock(st *bravo.Stats) func() bravo.RWLock {
	if st != nil {
		return func() bravo.RWLock { return bravo.New(bravo.NewGoRW(), bravo.WithStats(st)) }
	}
	return func() bravo.RWLock { return bravo.New(bravo.NewGoRW()) }
}

// runOpts selects one run.
type runOpts struct {
	seed    uint64
	seconds float64 // measured-phase budget: rounds start while it lasts
	scale   int     // per-round operation counts are the frozen ones divided by this
	workers int
	setups  int  // times set-up is repeated; setup_s is their median
	trace   bool // record spans (and attach lock statistics)
	stats   bool // attach lock statistics without spans
	// lock-read only, for the per-layer comparison rounds:
	bareLock bool // drive bare go-rw instead of bravo-go
	// deadline overrides the watchdog's three-times-expected allowance.
	deadline time.Duration
}

// plan is a workload's frozen shape.
type plan struct {
	keys        int        // key universe; 0 for the keyless lock workload
	mix         []mixEntry // request mix the tapes are drawn from
	tapeLen     int        // key-operations per worker tape
	passes      int        // tape passes per worker per round
	sampleEvery uint64     // one request in this many (a power of two) is timed
}

// workload is one named traffic shape.
type workload interface {
	plan() plan
	// setup constructs the system, preloads it, starts listening and warms
	// up: everything setup_s times.
	setup(rs *runState) error
	// round runs one fixed-count round on every worker and returns its wall
	// time. counts reports whether the round feeds ops_per_s.
	round(rs *runState, r int) (d time.Duration, counts bool)
	// finish runs once after the last round: post-run verification and the
	// metrics that come with it.
	finish(rs *runState) error
	teardown(rs *runState)
}

// sampleRing keeps the newest len(buf) latency samples of the round in
// progress, in nanoseconds.
type sampleRing struct {
	buf []uint32
	n   uint64
}

func (s *sampleRing) add(d time.Duration) {
	s.buf[s.n&uint64(len(s.buf)-1)] = uint32(min(d, math.MaxUint32))
	s.n++
}

// drain appends the kept samples to dst and empties the ring.
func (s *sampleRing) drain(dst []uint32) []uint32 {
	dst = append(dst, s.buf[:min(s.n, uint64(len(s.buf)))]...)
	s.n = 0
	return dst
}

// worker is one closed-loop client: its tape, its oracle state, its
// samples. Worker i writes only keys whose index is i modulo the worker
// count, so for its own keys it knows exactly what a read must return.
type worker struct {
	id, nw int
	tape   []uint32
	// seen is the oracle: per key index, the sequence this worker last
	// wrote (own keys) or the highest it has read (others' keys).
	seen   []uint32
	seq    uint32 // sequence of this worker's latest write
	reader *bravo.Reader
	tr     *tracer

	sampling   bool
	sampleMask uint64 // a request is timed when its number & sampleMask is 0
	rd, wr     sampleRing
	nops       uint64 // requests begun

	keyOps uint64        // key-operations completed
	issued atomic.Uint64 // keyOps as last published, for the watchdog
	// Failures are rare and the watchdog reads them while the worker may
	// still be running, so they are the worker's only synchronised state.
	failed   atomic.Uint64
	errMu    sync.Mutex
	firstErr string

	buf  []byte   // read scratch
	val  []byte   // point-write scratch
	vals [][]byte // batch scratch
	keys []uint64
	idxs []uint32

	_ [64]byte // keep neighbouring workers' hot fields on separate lines
}

const maxBatch = 16

func newWorker(id, nw, keys int, tape []uint32, sampleEvery uint64, readerID uint64) *worker {
	w := &worker{
		id: id, nw: nw, tape: tape, seen: make([]uint32, keys),
		reader:     bravo.NewReaderWithID(readerID),
		sampleMask: sampleEvery - 1,
		buf:        make([]byte, 0, 2*valueSize),
		val:        make([]byte, valueSize),
		vals:       make([][]byte, maxBatch),
		keys:       make([]uint64, 0, maxBatch),
		idxs:       make([]uint32, 0, maxBatch),
	}
	for i := range w.vals {
		w.vals[i] = make([]byte, valueSize)
	}
	return w
}

func (w *worker) failf(format string, args ...any) {
	w.failed.Add(1)
	w.errMu.Lock()
	if w.firstErr == "" {
		w.firstErr = fmt.Sprintf("worker %d: ", w.id) + fmt.Sprintf(format, args...)
	}
	w.errMu.Unlock()
}

// failures returns the worker's failure count and its first failure.
func (w *worker) failures() (uint64, string) {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.failed.Load(), w.firstErr
}

// own maps a tape key index onto one of this worker's keys.
func (w *worker) own(idx uint32) uint32 { return idx - idx%uint32(w.nw) + uint32(w.id) }

// expect returns what a read of idx issued now must return: exactly want
// for the worker's own keys, at least want for the others'.
func (w *worker) expect(idx uint32) (want uint32, exact bool) {
	return w.seen[idx], int(idx)%w.nw == w.id
}

// verify checks one read result against the oracle and counts the
// key-operation. Every read of every workload goes through here.
func (w *worker) verify(idx uint32, v []byte, found bool, want uint32, exact bool) {
	w.done(1)
	if !found {
		w.failf("key %d: not found", idx)
		return
	}
	seq, ok := decodeValue(v, uint64(idx))
	switch {
	case !ok:
		w.failf("key %d: value does not decode (len %d)", idx, len(v))
	case exact && seq != want:
		w.failf("own key %d: read sequence %d, last wrote %d", idx, seq, want)
	case seq < want:
		w.failf("key %d went backwards: read sequence %d after %d", idx, seq, want)
	case !exact:
		w.seen[idx] = seq
	}
}

// nextValue stamps the worker's next write to idx into dst and records it
// as the key's expected content.
func (w *worker) nextValue(dst []byte, idx uint32) {
	w.seq++
	encodeValue(dst, uint64(idx), w.seq)
	w.seen[idx] = w.seq
}

// done counts n completed key-operations.
func (w *worker) done(n int) { w.keyOps += uint64(n) }

// timed reports whether the request now beginning is a latency sample, and
// every so often publishes the worker's progress for the watchdog.
func (w *worker) timed() bool {
	w.nops++
	if w.nops%64 == 0 {
		w.issued.Store(w.keyOps)
	}
	return w.sampling && w.nops&w.sampleMask == 0
}

// batch gathers the n own-key indices of a batched write starting at
// tape[i] into w.idxs and w.keys. One sequence number covers the batch, so
// a key drawn twice carries the same value twice.
func (w *worker) batch(i, n int, ownKeys bool) {
	w.idxs, w.keys = w.idxs[:0], w.keys[:0]
	for _, e := range w.tape[i : i+n] {
		idx := e & tapeKeyMask
		if ownKeys {
			idx = w.own(idx)
		}
		w.idxs = append(w.idxs, idx)
		w.keys = append(w.keys, uint64(idx))
	}
}

// stampBatch fills w.vals for the batch gathered by batch.
func (w *worker) stampBatch() {
	w.seq++
	for j, idx := range w.idxs {
		encodeValue(w.vals[j], uint64(idx), w.seq)
		w.seen[idx] = w.seq
	}
}

// roundRec is one finished round: its throughput and the latency quantiles
// of the requests it timed (NaN where it timed none).
type roundRec struct {
	d            time.Duration
	keyOps       uint64
	counts       bool       // feeds ops_per_s
	nRead, nWrit int        // samples
	rd, wr       [3]float64 // p50, p99, p99.9 in ns
}

// runState is one run of one workload.
type runState struct {
	name    string
	o       runOpts
	wl      workload
	p       plan
	workers []*worker
	tapes   [][]uint32
	hash    uint64

	events []statsEvent // stats readings of a traced run
	epoch  time.Time

	// mu guards what the watchdog may read while run is still going: the
	// finished rounds, the round in flight, and — once setupDone is set and
	// they no longer change — what the set-ups measured.
	mu        sync.Mutex
	rounds    []roundRec
	inRound   bool
	roundBase uint64 // the workers' key-operations when the round in flight began
	timedOut  bool
	setupDone bool

	// Written by the set-ups only.
	setupTimes []float64
	memBytes   float64
	items      int     // what mem_bytes_per_item divides by: resident keys, or locks
	readDiv    float64 // operations one read sample covers (lock-read times bursts); 0 means one

	// Owned by run's goroutine until it returns; a timed-out run's result
	// leaves them alone.
	mallocs   uint64 // over the measured rounds
	verifyOps uint64 // post-run verification reads
	verifyBad uint64
	verifyErr string
	err       error
	extra     map[string]float64 // workload-specific measurements, by metric name
}

// roundKeyOps is the key-operations one worker performs per round.
func (rs *runState) roundKeyOps() int { return rs.p.passes * rs.p.tapeLen }

// parallel runs fn on every worker at once and returns the wall time from
// release to the last return.
func (rs *runState) parallel(fn func(w *worker)) time.Duration {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, w := range rs.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			<-start
			fn(w)
		}(w)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return time.Since(t0)
}

// walk drives a worker over virtual tape positions [from, to), wrapping at
// the end of the tape, and returns the position it stopped at (a batch
// that starts before to runs to its end). drive consumes tape[lo:hi) and
// returns the index after the last entry it consumed.
func walk(w *worker, from, to int, drive func(w *worker, lo, hi int) int) int {
	n := len(w.tape)
	for from < to {
		lo := from % n
		hi := min(n, lo+to-from)
		from += drive(w, lo, hi) - lo
	}
	return from
}

// heapAfterGC returns the live heap.
func heapAfterGC() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// sampleRingSize is each worker's capacity for one round's read samples,
// and again for its write samples (a power of two). At the frozen counts no
// workload times more requests than this per worker per round.
const sampleRingSize = 1 << 17

func newWorkload(name string, o runOpts) (workload, error) {
	switch name {
	case "lock-read":
		return &lockRead{bare: o.bareLock}, nil
	case "engine-read":
		return &engineWL{}, nil
	case "engine-write":
		return &engineWL{write: true}, nil
	case "wire-mixed":
		return &wireMixed{}, nil
	case "http-cluster":
		return &httpCluster{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// minRounds is the fewest rounds a run measures, whatever its time budget.
const minRounds = 3

// scratchSeq numbers the data directories of one process.
var scratchSeq atomic.Uint64

// newDataDir returns a fresh empty directory under the checkout's build
// scratch for a durable engine.
func (rs *runState) newDataDir() (string, error) {
	dir := filepath.Join(scratchRoot(), "data", fmt.Sprintf("%s-%d-%d", rs.name, os.Getpid(), scratchSeq.Add(1)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// runWorkload runs one workload under its watchdog and returns what was
// measured. The deadline is three times the expected duration; past it the
// goroutines are dumped, the operations never issued count as failed, and
// the rounds that finished are reported — a hang reads as a failure in about
// a minute. The abandoned run keeps its goroutines, servers and followers,
// so a caller that gets a timed-out result prints it and exits; whoever runs
// several workloads runs each in a process of its own (see runChild).
func runWorkload(name string, o runOpts) *result {
	wl, err := newWorkload(name, o)
	if err != nil {
		return &result{workload: name, attempted: 1, failed: 1, firstErr: err.Error()}
	}
	return runWith(name, wl, o)
}

func runWith(name string, wl workload, o runOpts) *result {
	rs := &runState{name: name, o: o, wl: wl, p: wl.plan(), extra: map[string]float64{}, epoch: time.Now()}
	rs.p.tapeLen = max(rs.p.tapeLen/o.scale, 4*maxBatch)

	deadline := o.deadline
	if deadline == 0 {
		// Expected: the budget, plus a few seconds of set-ups and
		// verification.
		deadline = time.Duration(3 * (o.seconds + 10) * float64(time.Second))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		rs.err = rs.run()
	}()
	select {
	case <-done:
		return rs.result(true)
	case <-time.After(deadline):
		rs.mu.Lock()
		rs.timedOut = true
		rs.mu.Unlock()
		buf := make([]byte, 1<<20)
		fmt.Fprintf(os.Stderr, "bravobench: %s: watchdog fired after %v; goroutines:\n%s\n", name, deadline, buf[:runtime.Stack(buf, true)])
		return rs.result(false)
	}
}

func (rs *runState) run() error {
	o, p := rs.o, rs.p
	if p.keys > 0 {
		cdf := zipfCDF(p.keys)
		for i := 0; i < o.workers; i++ {
			rs.tapes = append(rs.tapes, genTape(o.seed, i, p.tapeLen, p.mix, cdf))
		}
		rs.hash = tapeHash(rs.tapes)
	} else {
		rs.tapes = make([][]uint32, o.workers)
	}
	rd := make([][]uint32, o.workers)
	wr := make([][]uint32, o.workers)
	for i := range rd {
		rd[i], wr[i] = make([]uint32, sampleRingSize), make([]uint32, sampleRingSize)
	}

	for s := 0; s < o.setups; s++ {
		if s > 0 {
			rs.wl.teardown(rs)
		}
		rs.workers = rs.workers[:0]
		for i := 0; i < o.workers; i++ {
			w := newWorker(i, o.workers, p.keys, rs.tapes[i], p.sampleEvery, mix64(o.seed, 0x1d+uint64(i)))
			w.rd.buf, w.wr.buf = rd[i], wr[i]
			rs.workers = append(rs.workers, w)
		}
		heap0 := heapAfterGC()
		t0 := time.Now()
		if err := rs.wl.setup(rs); err != nil {
			rs.wl.teardown(rs)
			return fmt.Errorf("setup: %w", err)
		}
		rs.setupTimes = append(rs.setupTimes, time.Since(t0).Seconds())
		rs.memBytes = heapAfterGC() - heap0
	}
	defer rs.wl.teardown(rs)
	rs.mu.Lock()
	rs.setupDone = true
	rs.mu.Unlock()

	for _, w := range rs.workers {
		w.sampling = true
		w.keyOps, w.nops = 0, 0
		if o.trace {
			w.tr = newTracer(w.id, rs.epoch)
		}
	}
	m0 := mallocs()
	start := time.Now()
	var rdAll, wrAll []uint32
	for r := 0; r < minRounds || time.Since(start).Seconds() < o.seconds; r++ {
		var before uint64
		for _, w := range rs.workers {
			before += w.keyOps
		}
		rs.mu.Lock()
		rs.inRound, rs.roundBase = true, before
		rs.mu.Unlock()
		d, counts := rs.wl.round(rs, r)
		rec := roundRec{d: d, counts: counts}
		rdAll, wrAll = rdAll[:0], wrAll[:0]
		for _, w := range rs.workers {
			rec.keyOps += w.keyOps
			rdAll, wrAll = w.rd.drain(rdAll), w.wr.drain(wrAll)
		}
		rec.keyOps -= before
		slices.Sort(rdAll)
		slices.Sort(wrAll)
		rec.nRead, rec.nWrit = len(rdAll), len(wrAll)
		for i, p := range [3]float64{0.50, 0.99, 0.999} {
			rec.rd[i], rec.wr[i] = quantileNs(rdAll, p), quantileNs(wrAll, p)
		}
		rs.mu.Lock()
		if rs.timedOut {
			rs.mu.Unlock()
			return nil
		}
		rs.inRound = false
		rs.rounds = append(rs.rounds, rec)
		rs.mu.Unlock()
	}
	rs.mallocs = mallocs() - m0
	for _, w := range rs.workers {
		w.sampling = false
	}
	if err := rs.wl.finish(rs); err != nil {
		return fmt.Errorf("finish: %w", err)
	}
	if o.trace {
		return rs.flushTrace()
	}
	return nil
}

func (rs *runState) flushTrace() error {
	dir := filepath.Join(repoRoot(), "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var trs []*tracer
	for _, w := range rs.workers {
		trs = append(trs, w.tr)
	}
	path := filepath.Join(dir, "trace-"+rs.name+".jsonl")
	n, err := writeTrace(path, trs, rs.events)
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	rs.extra["trace.spans_written"] = float64(n)
	return nil
}

// event records a stats reading of a traced run.
func (rs *runState) event(what string, round int, values map[string]float64) {
	if rs.o.trace {
		rs.events = append(rs.events, statsEvent{Event: what, Round: round, AtNs: int64(time.Since(rs.epoch)), Values: values})
	}
}

// finalCheck reads every key through get and compares it with the last
// write its owner made: the final state must equal the last write per key.
func (rs *runState) finalCheck(get func(key uint64, buf []byte) ([]byte, bool)) {
	var buf []byte
	for idx := 0; idx < rs.p.keys; idx++ {
		want := rs.workers[idx%rs.o.workers].seen[idx]
		v, ok := get(uint64(idx), buf[:0])
		rs.verifyOps++
		if seq, good := decodeValue(v, uint64(idx)); !ok || !good || seq != want {
			rs.verifyBad++
			if rs.verifyErr == "" {
				rs.verifyErr = fmt.Sprintf("final state: key %d holds sequence %d (found %v, decodes %v), last write was %d", idx, seq, ok, good, want)
			}
		}
		buf = v
	}
}

// result is what one run measured.
type result struct {
	workload  string
	seed      uint64
	correct   bool
	timedOut  bool
	attempted uint64
	failed    uint64
	firstErr  string
	rounds    int
	rates     []float64 // key-ops/s of each round that feeds ops_per_s, in order
	tapeHash  uint64
	plan      plan
	// metrics holds every measurement by name: the end-to-end ones, and
	// whatever else the workload produced for the per-layer report.
	metrics map[string]float64
	// best holds, for the figures taken over rounds, the quartile towards
	// "better" beside the median that metrics reports.
	best map[string]float64
}

// result reports the run. finished says run has returned, so everything it
// measured may be read; after a watchdog fire (finished false) run's
// goroutine is still alive and only what mu guards, the workers' failure
// counts and — once setupDone — the set-up figures are touched.
func (rs *runState) result(finished bool) *result {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	m := map[string]float64{}
	res := &result{workload: rs.name, seed: rs.o.seed, timedOut: rs.timedOut, rounds: len(rs.rounds),
		plan: rs.p, metrics: m, best: map[string]float64{}}

	var keyOps uint64
	var nRead, nWrit int
	var rd, wr [3][]float64
	for _, r := range rs.rounds {
		keyOps += r.keyOps
		nRead, nWrit = nRead+r.nRead, nWrit+r.nWrit
		if r.counts {
			res.rates = append(res.rates, float64(r.keyOps)/r.d.Seconds())
		}
		for i := range rd {
			if r.nRead > 0 {
				rd[i] = append(rd[i], r.rd[i])
			}
			if r.nWrit > 0 {
				wr[i] = append(wr[i], r.wr[i])
			}
		}
	}
	res.attempted = keyOps
	if rs.timedOut && rs.inRound {
		// The round in flight: everything it planned was attempted, and
		// what it never completed failed.
		planned := uint64(rs.roundKeyOps() * len(rs.workers))
		var issued uint64
		for _, w := range rs.workers {
			issued += w.issued.Load()
		}
		issued -= min(issued, rs.roundBase)
		res.attempted += planned
		res.failed += planned - min(issued, planned)
	}
	if finished || rs.setupDone {
		res.tapeHash = rs.hash
		for _, w := range rs.workers {
			n, first := w.failures()
			res.failed += n
			if res.firstErr == "" {
				res.firstErr = first
			}
		}
	}
	if finished {
		for k, v := range rs.extra {
			m[k] = v
		}
		res.attempted += rs.verifyOps
		res.failed += rs.verifyBad
		if rs.err != nil {
			res.failed++
			if res.firstErr == "" {
				res.firstErr = rs.err.Error()
			}
		}
		if res.firstErr == "" {
			res.firstErr = rs.verifyErr
		}
		if keyOps > 0 {
			m["loadgen.allocs_per_op"] = float64(rs.mallocs) / float64(keyOps)
		}
	}
	if rs.timedOut && res.firstErr == "" {
		res.firstErr = "watchdog: deadline exceeded"
	}
	res.attempted = max(res.attempted, res.failed, 1)
	res.correct = res.failed == 0 && !rs.timedOut

	// Every timed figure is the median over the run's equal rounds of the
	// round's own value (its rate; its latency quantile). The quartile
	// towards "better" goes to the detail lines beside it: this host's
	// noise is one-sided, so that is what the program does when left alone.
	perRead := 1e3 * max(rs.readDiv, 1)
	fig := func(name string, perRound []float64, div float64, higherBetter bool) {
		q1, q3 := quartiles(perRound)
		m[name] = median(perRound) / div
		if res.best[name] = q1 / div; higherBetter {
			res.best[name] = q3 / div
		}
	}
	fig("ops_per_s", res.rates, 1, true)
	fig("read_p50_us", rd[0], perRead, false)
	fig("loadgen.read_p99_us", rd[1], perRead, false)
	fig("loadgen.read_p999_us", rd[2], perRead, false)
	fig("write_p50_us", wr[0], 1e3, false)
	fig("loadgen.write_p99_us", wr[1], 1e3, false)
	if finished || rs.setupDone {
		m["setup_s"] = median(rs.setupTimes)
		if rs.items > 0 {
			m["mem_bytes_per_item"] = rs.memBytes / float64(rs.items)
		}
	}
	m["loadgen.samples_read"] = float64(nRead)
	m["loadgen.samples_write"] = float64(nWrit)
	m["loadgen.failed_frac"] = float64(res.failed) / float64(res.attempted)
	return res
}
