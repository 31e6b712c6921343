// Command bravobench regenerates the paper's evaluation, every figure and
// table of §5–§6 by ID. The product stack (engine, WAL, wire, cluster) is
// measured by the separate benchmark/ module: bash benchmark/run.sh.
//
//	1–6             user-space locks (§5): 1 interference, 2 alternator,
//	                3 test_rwlock, 4a–4f RWBench, 5–6 rocksdb
//	7, 8a, 8b       locktorture (§6.1): 7a reads and 7b writes with 1 writer;
//	                no writer and a 50ms (8a) or 5µs (8b) read CS
//	9a–9d           will-it-scale (§6.2): page_fault1/2, mmap1/2
//	t1, t2          Metis wc and wrmem runtimes (§6.3), native only
//
// A figure number selects its sub-figures (-fig 4 is 4a–4f), a comma list
// runs in order, and all is every ID the mode draws. Each ID fixes the
// paper's parameters (writers, critical sections, mapping, corpus). -mode
// sim runs the deterministic coherence-cost simulator on the paper's X5-2
// (§5) and X5-4 (§6) topologies and reproduces the figures' shapes; -mode
// native runs the real implementations on goroutines (overhead-accurate,
// scalability limited by host CPUs).
//
//	bravobench -fig 2                 # alternator, simulated X5-2
//	bravobench -fig 4f                # RWBench at 0.01% writes
//	bravobench -fig 7,9a -threads 1,2,4
//	bravobench -fig all -mode native -interval 100ms
//	bravobench -scanrate              # revocation scan ns/slot (Table-less §3 claim)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/bravolock/bravo/internal/bench"
	"github.com/bravolock/bravo/internal/cliutil"
	_ "github.com/bravolock/bravo/internal/locks/all"
	"github.com/bravolock/bravo/internal/rwl"
	"github.com/bravolock/bravo/internal/sim"
)

var (
	figFlag      = flag.String("fig", "all", "comma list of figure and table IDs: 1-6, 4a-4f, 7, 8a, 8b, 9a-9d, t1, t2 (native only), or all")
	modeFlag     = flag.String("mode", "sim", "native or sim")
	intervalFlag = flag.Duration("interval", 0, "native measurement interval per run (unset: 200ms for 1-6, 1s for 7-8, 500ms for 9; paper: 10s/30s)")
	runsFlag     = flag.Int("runs", 0, "native runs per point, median reported (unset: 1 for 7-8, 3 otherwise; paper: 7)")
	threadsFlag  = flag.String("threads", "", "thread counts (unset: 1,2,5,10,20,50 for 1-6; 1,2,4,8,16,32,72,108,142 for 7-9 and the tables)")
	locksFlag    = flag.String("locks", "ba,bravo-ba,pthread,bravo-pthread,per-cpu,cohort-rw", "native lock lineup for 2-6")
	scanFlag     = flag.Bool("scanrate", false, "measure the revocation scan rate (ns/slot) and exit")
)

// family is what a group of figures shares: the run protocol it takes when
// -interval, -runs or -threads is unset, the simulated topology, and the
// native lineup (nil: -locks) and unit.
type family struct {
	interval time.Duration
	runs     int
	threads  []int
	topo     string
	lineup   []string
	unit     string
}

var (
	kernelThreads = []int{1, 2, 4, 8, 16, 32, 72, 108, 142}
	kernels       = []string{string(bench.Stock), string(bench.Bravo)}
	userSpace     = family{200 * time.Millisecond, 3, []int{1, 2, 5, 10, 20, 50}, "X5-2", nil, "ops/interval"}
	torture       = family{time.Second, 1, kernelThreads, "X5-4", kernels, "ops/interval"}
	willItScale   = family{500 * time.Millisecond, 3, kernelThreads, "X5-4", kernels, "iterations/s"}
	metisTables   = family{runs: 3, threads: kernelThreads}
)

// figure is one artefact of the paper's evaluation. A nil sim marks a
// native-only table.
type figure struct {
	id     string
	fam    family
	sim    func(w io.Writer, threads []int)
	native func(w io.Writer, cfg bench.Config, lineup []string)
}

func main() {
	flag.Parse()
	if *scanFlag {
		rate := bench.RevocationScanRate(4096, 200)
		fmt.Printf("revocation scan rate: %.2f ns/slot over a 4096-entry table (paper: ≈1.1 ns/slot)\n", rate)
		return
	}
	if *modeFlag != "native" && *modeFlag != "sim" {
		fatal(fmt.Errorf("unknown mode %q: native or sim", *modeFlag))
	}
	cfg := bench.Config{Interval: *intervalFlag, Runs: *runsFlag}
	if *threadsFlag != "" {
		var err error
		if cfg.Threads, err = cliutil.ParseInts(*threadsFlag); err != nil {
			fatal(err)
		}
	}
	locks := cliutil.ParseNames(*locksFlag)
	if err := checkLocks(locks); err != nil {
		fatal(err)
	}
	figs, err := selectFigures(*figFlag, *modeFlag)
	if err != nil {
		fatal(err)
	}
	for _, f := range figs {
		f.draw(os.Stdout, *modeFlag == "native", cfg, locks)
	}
}

// checkLocks fails a -locks name the registry does not know, before any run.
func checkLocks(names []string) error {
	for _, n := range names {
		if _, ok := rwl.Lookup(n); !ok {
			_, err := rwl.New(n)
			return err
		}
	}
	return nil
}

// selectFigures resolves a comma list of IDs in order, failing on the first
// one the mode cannot draw before anything runs.
func selectFigures(spec, mode string) ([]figure, error) {
	var drawable []figure
	var ids []string
	for _, f := range figures() {
		if mode == "native" || f.sim != nil {
			drawable = append(drawable, f)
			ids = append(ids, f.id)
		}
	}
	var out []figure
	for _, id := range strings.Split(spec, ",") {
		id, n := strings.TrimSpace(id), len(out)
		for _, f := range drawable {
			if id == "all" || f.id == id || strings.TrimRight(f.id, "abcdef") == id {
				out = append(out, f)
			}
		}
		if len(out) == n {
			return nil, fmt.Errorf("no figure %q in %s mode (t1, t2 are native only); valid: %s, or all", id, mode, strings.Join(ids, ", "))
		}
	}
	return out, nil
}

// draw renders f to w; what cfg leaves zero comes from f's family.
func (f figure) draw(w io.Writer, native bool, cfg bench.Config, locks []string) {
	if cfg.Interval == 0 {
		cfg.Interval = f.fam.interval
	}
	if cfg.Runs == 0 {
		cfg.Runs = f.fam.runs
	}
	if cfg.Threads == nil {
		cfg.Threads = f.fam.threads
	}
	if f.fam.lineup != nil {
		locks = f.fam.lineup
	}
	if native {
		f.native(w, cfg, locks)
	} else {
		f.sim(w, cfg.Threads)
	}
}

// figures lists every artefact in the paper's order.
func figures() []figure {
	pools := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
	figs := []figure{
		{id: "1", fam: userSpace,
			sim: func(w io.Writer, _ []int) {
				bench.WritePoints(w, "Figure 1: Inter-Lock Interference (sim)", "locks", "throughput fraction", sim.Figure1Interference(pools))
			},
			native: func(w io.Writer, cfg bench.Config, _ []string) {
				var out []sim.Point
				for _, n := range pools {
					out = append(out, sim.Point{X: n, Value: bench.Interference(n, 64, cfg)})
				}
				bench.WritePoints(w, "Figure 1: Inter-Lock Interference (native)", "locks", "throughput fraction", out)
			}},
		curves("2", userSpace, "Figure 2: Alternator", "Msteps/10s-equivalent", sim.Figure2Alternator, bench.Alternator),
		curves("3", userSpace, "Figure 3: test_rwlock", "ops/msec-equivalent", sim.Figure3TestRWLock, bench.TestRWLock),
	}
	for i, sp := range []struct {
		prob  float64
		label string
	}{
		{0.9, "90% writes (9/10)"}, {0.5, "50% writes (1/2)"}, {0.1, "10% writes (1/10)"},
		{0.01, "1% writes (1/100)"}, {0.001, ".1% writes (1/1000)"}, {0.0001, ".01% writes (1/10000)"},
	} {
		id := "4" + string(rune('a'+i))
		figs = append(figs, curves(id, userSpace, "Figure "+id+": RWBench with "+sp.label, "ops/msec-equivalent",
			func(threads []int) sim.Series { return sim.Figure4RWBench(threads, sp.prob) },
			func(lock string, tc int, cfg bench.Config) float64 { return bench.RWBench(lock, tc, sp.prob, cfg) }))
	}
	figs = append(figs,
		curves("5", userSpace, "Figure 5: rocksdb readwhilewriting", "M ops/sec-equivalent", sim.Figure5ReadWhileWriting, bench.ReadWhileWriting),
		curves("6", userSpace, "Figure 6: rocksdb hash_table_bench", "ops/msec-equivalent", sim.Figure6HashTable, bench.HashTableBench),
		figure{id: "7", fam: torture,
			sim: func(w io.Writer, threads []int) {
				reads, writes := sim.Figure7Locktorture(threads)
				bench.WriteSeries(w, "Figure 7a: locktorture reader ops, 1 writer (sim, X5-4)", "threads", "ops/30s", reads)
				bench.WriteSeries(w, "Figure 7b: locktorture writer ops, 1 writer (sim, X5-4)", "threads", "ops/30s", writes)
			},
			native: func(w io.Writer, cfg bench.Config, lineup []string) {
				writes := sim.Series{}
				reads := bench.SweepLocks(lineup, cfg, func(k string, tc int) float64 {
					r, wr := locktorture(bench.Kernel(k), tc, 1, 50*time.Millisecond, cfg)
					writes[k] = append(writes[k], sim.Point{X: tc, Value: wr})
					return r
				})
				bench.WriteSeries(w, "Figure 7a: locktorture reader ops, 1 writer (native)", "threads", "ops/interval", reads)
				bench.WriteSeries(w, "Figure 7b: locktorture writer ops, 1 writer (native)", "threads", "ops/interval", writes)
			}},
	)
	for i, readCS := range []time.Duration{50 * time.Millisecond, 5 * time.Microsecond} {
		id := "8" + string(rune('a'+i))
		figs = append(figs, curves(id, torture, fmt.Sprintf("Figure %s: locktorture reads, 0 writers, %v read CS", id, readCS), "ops/30s",
			func(threads []int) sim.Series { return sim.Figure8Locktorture(threads, float64(readCS.Nanoseconds())) },
			func(k string, tc int, cfg bench.Config) float64 {
				r, _ := locktorture(bench.Kernel(k), tc, 0, readCS, cfg)
				return r
			}))
	}
	for i, test := range []string{"page_fault1", "page_fault2", "mmap1", "mmap2"} {
		id := "9" + string(rune('a'+i))
		figs = append(figs, curves(id, willItScale, "Figure "+id+": will-it-scale "+test+"_threads", "iterations/s",
			func(threads []int) sim.Series { return sim.Figure9WillItScale(threads, test) },
			func(k string, tc int, cfg bench.Config) float64 {
				return bench.WillItScale(bench.Kernel(k), test, tc, 128<<20, cfg)
			}))
	}
	return append(figs,
		metisTable("t1", "Table 1: Metis wc runtime (native)", func(k bench.Kernel, tc int) time.Duration { return bench.MetisWC(k, tc, 200000) }),
		metisTable("t2", "Table 2: Metis wrmem runtime (native)", func(k bench.Kernel, tc int) time.Duration { return bench.MetisWrmem(k, tc, 20000) }),
	)
}

// curves is a figure with one curve per lock: per simulated lock in sim
// mode, per lock of the family's native lineup in native mode.
func curves(id string, fam family, title, unit string, simFn func([]int) sim.Series, nativeFn func(lock string, tc int, cfg bench.Config) float64) figure {
	return figure{id: id, fam: fam,
		sim: func(w io.Writer, threads []int) {
			bench.WriteSeries(w, title+" (sim, "+fam.topo+")", "threads", unit, simFn(threads))
		},
		native: func(w io.Writer, cfg bench.Config, lineup []string) {
			s := bench.SweepLocks(lineup, cfg, func(lock string, tc int) float64 { return nativeFn(lock, tc, cfg) })
			bench.WriteSeries(w, title+" (native)", "threads", fam.unit, s)
		}}
}

// locktorture runs §6.1 natively cfg.Runs times with the paper's 10ms write
// CS and reports the median run's reads and that run's writes.
func locktorture(k bench.Kernel, readers, writers int, readCS time.Duration, cfg bench.Config) (reads, writes float64) {
	writesOf := map[float64]float64{}
	reads = cfg.Median(func() float64 {
		r := bench.Locktorture(k, readers, writers, readCS, 10*time.Millisecond, cfg)
		writesOf[float64(r.Reads)] = float64(r.Writes)
		return float64(r.Reads)
	})
	return reads, writesOf[reads]
}

// metisTable is Table 1 or 2: the median runtime per kernel and the paper's
// speedup column, (stock − BRAVO)/stock.
func metisTable(id, title string, run func(k bench.Kernel, workers int) time.Duration) figure {
	return figure{id: id, fam: metisTables,
		native: func(w io.Writer, cfg bench.Config, _ []string) {
			fmt.Fprintf(w, "# %s\n%-10s %14s %14s %10s\n", title, "#threads", "stock", "BRAVO", "speedup")
			for _, tc := range cfg.Threads {
				median := func(k bench.Kernel) time.Duration {
					return time.Duration(cfg.Median(func() float64 { return float64(run(k, tc)) }))
				}
				s, b := median(bench.Stock), median(bench.Bravo)
				fmt.Fprintf(w, "%-10d %14v %14v %9.1f%%\n", tc, s.Round(time.Millisecond), b.Round(time.Millisecond),
					100*bench.MetisSpeedup(s, b))
			}
			fmt.Fprintln(w)
		}}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bravobench:", err)
	os.Exit(1)
}
