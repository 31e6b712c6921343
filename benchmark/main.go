// Command benchmark is this repository's benchmark: five named workloads
// over the whole stack — the BRAVO lock, the embedded engine, the wire and
// HTTP front-ends, the replicated cluster — measured on every core the host
// has. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	bash benchmark/run.sh --workload engine-read --seed 1 --seconds 10 --trace 0
//
// prints what it measured and, as the last line, one JSON object with the
// keys correct, attempted, failed and metrics: every end-to-end metric with
// --trace 0, every per-layer metric with --trace 1. Without --workload it
// runs all five, each in a process of its own; with --repeat K it runs K such
// passes on consecutive seeds and reports each metric's spread against its
// bound.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	var (
		workloadFlag = flag.String("workload", "", "workload to run (default: all five, in order)")
		seedFlag     = flag.Uint64("seed", 1, "seed of every generated input")
		secondsFlag  = flag.Float64("seconds", 10, "measured-phase budget per run, seconds")
		traceFlag    = flag.Int("trace", 0, "1: the traced run (ladder, spans, per-layer metrics); 0: the end-to-end run")
		repeatFlag   = flag.Int("repeat", 0, "run this many end-to-end passes on consecutive seeds and report each metric's spread against its bound")
		outFlag      = flag.String("out", "", "also write the stamped results to this file as JSON")
	)
	flag.Parse()
	if flag.NArg() > 0 || *repeatFlag < 0 || *secondsFlag <= 0 || (*traceFlag != 0 && *traceFlag != 1) || (*repeatFlag > 0 && *traceFlag == 1) {
		fmt.Fprintln(os.Stderr, "bravobench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintf(os.Stderr, "bravobench: %d CPU(s), GOMAXPROCS %d: the benchmark measures reader scaling across cores and refuses to run on one\n",
			runtime.NumCPU(), runtime.GOMAXPROCS(0))
		os.Exit(2)
	}
	names := workloadNames
	if *workloadFlag != "" && *workloadFlag != "all" {
		if _, err := newWorkload(*workloadFlag, runOpts{}); err != nil {
			fmt.Fprintln(os.Stderr, "bravobench:", err)
			os.Exit(2)
		}
		names = []string{*workloadFlag}
	}
	base := runOpts{seed: *seedFlag, seconds: *secondsFlag, scale: 1, workers: defaultWorkers, setups: 7}
	st := newStamp(base)
	printJSONLine("stamp", st)

	var reports []report
	code := 0
	// Several end-to-end runs are each a process of its own.
	children := *repeatFlag > 0 || (*traceFlag == 0 && len(names) > 1)
	switch {
	case children:
		reports, code = repeatMode(names, base, max(*repeatFlag, 1))
	case *traceFlag == 1:
		ly := measureLayers(base)
		for i, name := range names {
			rep := tracedRun(name, base, ly)
			defs := perLayer
			if i > 0 { // the layers' figures are the same for every workload
				defs = loadgenOnly(perLayer)
			}
			rep.printDetail(defs)
			reports = append(reports, rep)
			if rep.TimedOut {
				break // the abandoned run still holds the cores; stop here
			}
		}
	default:
		rep := endToEndReport(runWorkload(names[0], base))
		rep.printDetail(endToEnd)
		reports = append(reports, rep)
	}
	if *outFlag != "" {
		if err := writeJSONFile(*outFlag, outFile{st, reports}); err != nil {
			fmt.Fprintln(os.Stderr, "bravobench:", err)
			code = 1
		}
	}
	if !children {
		for _, rep := range reports {
			rep.printResultLine()
			if !rep.Correct {
				code = 1
			}
		}
	}
	os.Exit(code)
}

func loadgenOnly(defs []metricDef) (out []metricDef) {
	for _, d := range defs {
		if strings.HasPrefix(d.name, "loadgen.") {
			out = append(out, d)
		}
	}
	return out
}

// outFile is what --out writes.
type outFile struct {
	Stamp   stamp    `json:"stamp"`
	Results []report `json:"results"`
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run as printed: the contract's four keys, plus context
// that goes to the detail lines and the --out file only.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Correct   bool                   `json:"correct"`
	TimedOut  bool                   `json:"timed_out,omitempty"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Ungated is what an end-to-end run measured of the issue's metrics
	// that BENCHMARK.json cannot gate (see spec.go); Best the better
	// quartile over rounds of the figures whose median Metrics reports.
	Ungated  map[string]metricValue `json:"printed_not_gated,omitempty"`
	Best     map[string]float64     `json:"better_quartile,omitempty"`
	FirstErr string                 `json:"first_error,omitempty"`
	Rounds   int                    `json:"rounds"`
	Rates    []float64              `json:"round_rates,omitempty"` // key-ops/s of each round feeding ops_per_s
	TapeHash string                 `json:"op_sequence_hash"`
	Counts   map[string]int         `json:"frozen_counts"`
}

// newReport selects defs from a result. A metric that was not measured (or
// is not a number) makes the run incorrect rather than silently absent.
func newReport(res *result, defs []metricDef) report {
	rep := report{
		Workload: res.workload, Seed: res.seed, Correct: res.correct, TimedOut: res.timedOut,
		Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricValue{}, Best: res.best, FirstErr: res.firstErr, Rounds: res.rounds, Rates: res.rates,
		TapeHash: fmt.Sprintf("%016x", res.tapeHash),
		Counts: map[string]int{"keys": res.plan.keys, "key_ops_per_worker_per_round": res.plan.tapeLen * res.plan.passes,
			"tape_len": res.plan.tapeLen, "sample_every": int(res.plan.sampleEvery)},
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			rep.Correct = false
			rep.Failed++
			if rep.FirstErr == "" {
				rep.FirstErr = fmt.Sprintf("metric %s was not measured", d.name)
			}
			v = 0
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	rep.Attempted = max(rep.Attempted, rep.Failed)
	return rep
}

// endToEndReport is the report of an untraced run: the gated metrics, and
// beside them those of the ungated ones it measured.
func endToEndReport(res *result) report {
	rep := newReport(res, endToEnd)
	rep.Ungated = map[string]metricValue{}
	for _, d := range ungated {
		if v, ok := res.metrics[d.name]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			rep.Ungated[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	return rep
}

// printDetail prints the run for people: counts, round rates, the first
// failure, and every metric of defs by name with its unit.
func (rep report) printDetail(defs []metricDef) {
	fmt.Printf("%s seed %d: %d rounds, %d attempted, %d failed, op-sequence %s\n",
		rep.Workload, rep.Seed, rep.Rounds, rep.Attempted, rep.Failed, rep.TapeHash)
	if len(rep.Rates) > 0 {
		fmt.Printf("%s: round rates, key-ops/s: %.4g\n", rep.Workload, rep.Rates)
	}
	if rep.FirstErr != "" {
		fmt.Printf("%s: FIRST FAILURE: %s\n", rep.Workload, rep.FirstErr)
	}
	for _, d := range defs {
		fmt.Printf("  %-32s %16.6g %-6s", d.name, rep.Metrics[d.name].Value, d.unit)
		if b, ok := rep.Best[d.name]; ok {
			fmt.Printf(" (median of rounds; better quartile %.6g)", b)
		}
		fmt.Println()
	}
	for _, d := range ungated {
		if m, ok := rep.Ungated[d.name]; ok {
			fmt.Printf("  %-32s %16.6g %-6s (printed, not gated)\n", d.name, m.Value, d.unit)
		}
	}
}

// printResultLine prints the contract's result object on one line.
func (rep report) printResultLine() {
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}

// layers is the half of a traced run that does not depend on the selected
// workload, measured once per process: the ladder, the layers' own counters
// from the workload that exercises each (every workload at a tenth of its
// count and time, untraced), and the lock comparison.
type layers struct {
	m map[string]float64
	tally
}

// tally adds up the sub-runs of a traced run.
type tally struct {
	attempted, failed uint64
	firstErr          string
	timedOut          bool
}

func (t *tally) run(wl string, o runOpts) *result {
	res := runWorkload(wl, o)
	t.attempted += res.attempted
	t.failed += res.failed
	t.timedOut = t.timedOut || res.timedOut
	if t.firstErr == "" && res.firstErr != "" {
		t.firstErr = wl + ": " + res.firstErr
	}
	return res
}

// tenth is the options of a traced run's sub-runs.
func tenth(base runOpts) runOpts {
	base.scale, base.seconds, base.setups = base.scale*10, base.seconds/10, 1
	return base
}

func measureLayers(base runOpts) *layers {
	m, fails := runLadder(os.Stdout)
	ly := &layers{m: m}
	var bravoW float64
	ly.firstErr = strings.Join(fails, "; ")
	ly.failed = uint64(len(fails))
	mini := tenth(base)
	for _, wl := range workloadNames {
		if ly.timedOut {
			return ly
		}
		res := ly.run(wl, mini)
		if wl == "lock-read" {
			bravoW = res.metrics["ops_per_s"]
		}
		for k, v := range res.metrics {
			if strings.Contains(k, ".") && !strings.HasPrefix(k, "loadgen.") {
				m[k] = v
			}
		}
		if wl == "wire-mixed" {
			m["wire.mixed_allocs_per_op"] = res.metrics["loadgen.allocs_per_op"]
		}
	}
	// The lock: its statistics (their shared counters would be the
	// contended line of every other lock-read run), then bravo-go against
	// bare go-rw at W threads and against itself on one thread.
	lock := func(set func(*runOpts)) map[string]float64 {
		if ly.timedOut {
			return nil
		}
		o := mini
		set(&o)
		return ly.run("lock-read", o).metrics
	}
	for k, v := range lock(func(o *runOpts) { o.stats = true }) {
		if strings.HasPrefix(k, "bias.") {
			m[k] = v
		}
	}
	bareW := lock(func(o *runOpts) { o.bareLock = true })["ops_per_s"]
	bravo1 := lock(func(o *runOpts) { o.workers = 1 })["ops_per_s"]
	if ly.timedOut {
		return ly
	}
	m["core.base_ops_per_s"] = bareW
	m["core.speedup_vs_base"] = bravoW / bareW
	m["core.scale_1_to_w"] = bravoW / bravo1
	fmt.Printf("host shape: %d CPUs, GOMAXPROCS %d, W = %d; speedup_vs_base and scale_1_to_w are as measured on it\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), base.workers)
	return ly
}

// tracedRun is --trace 1 for one workload: the layers, plus the workload at
// a tenth of its count and time twice, back to back (a process's history
// moves a 1.5 s run by more than tracing does) — plain, then under spans;
// the two give the tracing overhead. End-to-end numbers never come from here.
func tracedRun(name string, base runOpts, ly *layers) report {
	t := ly.tally
	m := map[string]float64{}
	for k, v := range ly.m {
		m[k] = v
	}
	res := &result{workload: name, seed: base.seed}
	if !t.timedOut {
		o := tenth(base)
		plain := t.run(name, o)
		o.trace = true
		sel := t.run(name, o)
		for k, v := range sel.metrics {
			if strings.HasPrefix(k, "loadgen.") {
				m[k] = v
			}
		}
		m["loadgen.trace_overhead_frac"] = 1 - sel.metrics["ops_per_s"]/plain.metrics["ops_per_s"]
		res.rounds, res.tapeHash, res.plan = sel.rounds, sel.tapeHash, sel.plan
	}
	m["loadgen.failed_frac"] = float64(t.failed) / float64(max(t.attempted, 1))
	res.correct, res.timedOut = t.failed == 0 && !t.timedOut, t.timedOut
	res.attempted, res.failed, res.firstErr, res.metrics = max(t.attempted, 1), t.failed, t.firstErr, m
	return newReport(res, perLayer)
}

// stamp says where and from what a result was measured, so no number is
// later read as another commit's, another host's, or a device's.
type stamp struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	CPUModel   string  `json:"cpu_model"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Workers    int     `json:"workers"`
	Lock       string  `json:"lock"`
	Shards     int     `json:"shards"`
	SyncPolicy string  `json:"sync_policy"`
	LoadShape  string  `json:"load_shape"`
	Network    string  `json:"network"`
	Disk       string  `json:"disk"`
	Timestamp  string  `json:"timestamp"`
}

func newStamp(o runOpts) stamp {
	st := stamp{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", Seed: o.seed, Seconds: o.seconds, Workers: o.workers,
		Lock: lockName, Shards: shards, SyncPolicy: "none",
		LoadShape: "closed loop, in-process servers", Network: "loopback", Disk: "sandbox disk",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	// A checkout that is not a git repository (the driver's) stays "unknown".
	root := repoRoot()
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
			st.Dirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return st
}

func printJSONLine(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s %s\n", label, b)
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// repoRoot is the directory holding BENCHMARK.json: the working directory
// when run as documented, its parent when run from benchmark/ itself.
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
	}
	return "."
}

// scratchRoot is where build products and durable engines' data go: inside
// the checkout, ignored by git.
func scratchRoot() string { return filepath.Join(repoRoot(), ".bench_build") }

// benchmarkJSON is the part of BENCHMARK.json the program reads.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []benchMetric           `json:"end_to_end"`
	PerLayer  []benchMetric           `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON() (*benchmarkJSON, error) {
	b, err := os.ReadFile(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bj, nil
}

// runChild runs one end-to-end run of name in a process of its own, exactly
// as the driver makes them: a process that ran another workload before is
// measurably slower, and a run the watchdog abandoned keeps its goroutines,
// servers and followers, which must not share the cores with the next run.
// It returns the child's standard output and the report it wrote.
func runChild(self, name string, o runOpts) (string, report, error) {
	tmp := filepath.Join(scratchRoot(), fmt.Sprintf("child-%d.json", os.Getpid()))
	if err := os.MkdirAll(scratchRoot(), 0o755); err != nil {
		return "", report{}, err
	}
	defer os.Remove(tmp)
	// The child's own watchdog fires at 3 × (seconds + 10); this is the
	// backstop for a child that cannot even do that.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(4*(o.seconds+10)*float64(time.Second)))
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "--workload", name, "--seed", fmt.Sprint(o.seed),
		"--seconds", fmt.Sprint(o.seconds), "--trace", "0", "--out", tmp)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var f outFile
	b, err := os.ReadFile(tmp)
	if err == nil {
		err = json.Unmarshal(b, &f)
	}
	if err != nil || len(f.Results) != 1 {
		return string(out), report{}, fmt.Errorf("no report from the child (%v, %v)", runErr, err)
	}
	return string(out), f.Results[0], runErr
}

// repeatMode runs passes end-to-end passes over names on consecutive seeds,
// each run in a process of its own, and prints, per (workload, metric), min /
// median / max and the relative spread against the metric's bound in
// BENCHMARK.json (the gate) and the pair's own bound (spec.go); the ungated
// metrics follow with their spread and no bound.
// It returns the reports and the exit code: non-zero when a spread breaches
// its bound or a run was incorrect. This is the tool for sizing a gain
// against noise.
func repeatMode(names []string, base runOpts, passes int) ([]report, int) {
	bj, err := readBenchmarkJSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bravobench:", err)
		return nil, 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bravobench:", err)
		return nil, 2
	}
	var reports []report
	values := map[string]map[string][]float64{}
	code := 0
	for p := 0; p < passes; p++ {
		for _, name := range names {
			o := base
			o.seed += uint64(p)
			out, rep, err := runChild(self, name, o)
			lines := strings.Split(strings.TrimSpace(out), "\n")
			if passes == 1 {
				fmt.Println(strings.Join(lines[1:], "\n")) // all but the child's stamp
			} else {
				fmt.Printf("%s seed %d: %s\n", name, o.seed, lines[len(lines)-1])
			}
			if err != nil || !rep.Correct {
				fmt.Printf("%s seed %d: run failed (%v): %s\n", name, o.seed, err, rep.FirstErr)
				code = 1
				if err != nil {
					continue
				}
			}
			reports = append(reports, rep)
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for _, ms := range []map[string]metricValue{rep.Metrics, rep.Ungated} {
				for k, v := range ms {
					values[name][k] = append(values[name][k], v.Value)
				}
			}
		}
	}
	if passes == 1 {
		return reports, code
	}
	fmt.Printf("\n%d passes, seeds %d..%d; spread = interquartile range / median (range / median under 4 passes)\n",
		passes, base.seed, base.seed+uint64(passes)-1)
	fmt.Printf("%-13s %-22s %14s %14s %14s %8s %7s %7s\n", "workload", "metric", "min", "median", "max", "spread", "gate", "pair")
	pct := func(x float64) string { return fmt.Sprintf("%6.0f%%", 100*x) }
	row := func(name, metric string, gate float64) {
		xs := values[name][metric]
		spread, verdict, gateCol, pairCol := quartileSpread(xs), "", "      -", "      -"
		if gate > 0 {
			gateCol = pct(gate)
			// setup_s is gated on its median moving, not on its spread.
			if spread > gate && metric != "setup_s" {
				verdict = "  BREACH"
				code = 1
			}
		}
		if pb, ok := pairBound(name, metric); ok {
			pairCol = pct(pb)
			if spread > pb && verdict == "" {
				verdict = "  noisier than sized"
			}
		}
		fmt.Printf("%-13s %-22s %14.6g %14.6g %14.6g %7.2f%% %s %s%s\n",
			name, metric, slices.Min(xs), median(xs), slices.Max(xs), 100*spread, gateCol, pairCol, verdict)
	}
	for _, name := range names {
		for _, bm := range bj.EndToEnd {
			if len(values[name][bm.Name]) == 0 {
				fmt.Printf("%-13s %-22s not reported\n", name, bm.Name)
				code = 1
				continue
			}
			row(name, bm.Name, bm.Bound)
		}
		for _, d := range ungated {
			if len(values[name][d.name]) > 0 {
				row(name, d.name, 0)
			}
		}
	}
	return reports, code
}
