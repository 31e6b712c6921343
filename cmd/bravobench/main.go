// Command bravobench regenerates the paper's user-space evaluation
// (Figures 1–6, §5). The product stack (engine, WAL, wire, cluster) is
// measured by the separate benchmark/ module: bash benchmark/run.sh.
//
// Two figure modes:
//
//	-mode native   run the real lock implementations on goroutines
//	               (overhead-accurate; scalability limited by host CPUs)
//	-mode sim      run the deterministic coherence-cost simulator on the
//	               paper's X5-2 topology (reproduces the figures' shapes)
//
// Examples:
//
//	bravobench -fig 2                 # alternator, simulated X5-2
//	bravobench -fig 4 -sub f          # RWBench at 0.01% writes
//	bravobench -fig all -mode native -interval 100ms
//	bravobench -scanrate              # revocation scan ns/slot (Table-less §3 claim)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/bravolock/bravo/internal/bench"
	"github.com/bravolock/bravo/internal/cliutil"
	_ "github.com/bravolock/bravo/internal/locks/all"
	"github.com/bravolock/bravo/internal/sim"
)

var (
	figFlag      = flag.String("fig", "all", "figure to regenerate: 1,2,3,4,5,6 or all")
	subFlag      = flag.String("sub", "", "figure 4 sub-plot: a..f (default: all)")
	modeFlag     = flag.String("mode", "sim", "native or sim")
	intervalFlag = flag.Duration("interval", 200*time.Millisecond, "native measurement interval per run (paper: 10s)")
	runsFlag     = flag.Int("runs", 3, "native runs per point; median reported (paper: 7)")
	threadsFlag  = flag.String("threads", "1,2,5,10,20,50", "thread counts")
	locksFlag    = flag.String("locks", "ba,bravo-ba,pthread,bravo-pthread,per-cpu,cohort-rw", "native lock lineup")
	scanFlag     = flag.Bool("scanrate", false, "measure the revocation scan rate (ns/slot) and exit")
)

// rwbenchSubs maps Figure 4's sub-plots to write probabilities.
var rwbenchSubs = []struct {
	sub   string
	prob  float64
	label string
}{
	{"a", 0.9, "90% writes (9/10)"},
	{"b", 0.5, "50% writes (1/2)"},
	{"c", 0.1, "10% writes (1/10)"},
	{"d", 0.01, "1% writes (1/100)"},
	{"e", 0.001, ".1% writes (1/1000)"},
	{"f", 0.0001, ".01% writes (1/10000)"},
}

func main() {
	flag.Parse()
	if *scanFlag {
		rate := bench.RevocationScanRate(4096, 200)
		fmt.Printf("revocation scan rate: %.2f ns/slot over a 4096-entry table (paper: ≈1.1 ns/slot)\n", rate)
		return
	}
	threads, err := cliutil.ParseInts(*threadsFlag)
	if err != nil {
		fatal(err)
	}
	cfg := bench.Config{Interval: *intervalFlag, Runs: *runsFlag, Threads: threads}
	locks := cliutil.ParseNames(*locksFlag)
	figs := []string{"1", "2", "3", "4", "5", "6"}
	if *figFlag != "all" {
		figs = []string{*figFlag}
	}
	for _, fig := range figs {
		switch fig {
		case "1":
			runFigure1(cfg)
		case "2":
			runSeriesFigure(cfg, locks, "Figure 2: Alternator", "Msteps/10s-equivalent",
				func() sim.Series { return sim.Figure2Alternator(threads) },
				func(lock string, tc int) float64 { return bench.Alternator(lock, tc, cfg) })
		case "3":
			runSeriesFigure(cfg, locks, "Figure 3: test_rwlock", "ops/msec-equivalent",
				func() sim.Series { return sim.Figure3TestRWLock(threads) },
				func(lock string, tc int) float64 { return bench.TestRWLock(lock, tc, cfg) })
		case "4":
			for _, sp := range rwbenchSubs {
				if *subFlag != "" && *subFlag != sp.sub {
					continue
				}
				sp := sp
				runSeriesFigure(cfg, locks,
					fmt.Sprintf("Figure 4%s: RWBench with %s", sp.sub, sp.label), "ops/msec-equivalent",
					func() sim.Series { return sim.Figure4RWBench(threads, sp.prob) },
					func(lock string, tc int) float64 {
						return bench.RWBench(lock, tc, sp.prob, cfg)
					})
			}
		case "5":
			runSeriesFigure(cfg, locks, "Figure 5: rocksdb readwhilewriting", "M ops/sec-equivalent",
				func() sim.Series { return sim.Figure5ReadWhileWriting(threads) },
				func(lock string, tc int) float64 { return bench.ReadWhileWriting(lock, tc, cfg) })
		case "6":
			runSeriesFigure(cfg, locks, "Figure 6: rocksdb hash_table_bench", "ops/msec-equivalent",
				func() sim.Series { return sim.Figure6HashTable(threads) },
				func(lock string, tc int) float64 { return bench.HashTableBench(lock, tc, cfg) })
		default:
			fatal(fmt.Errorf("unknown figure %q", fig))
		}
	}
}

func runFigure1(cfg bench.Config) {
	pools := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
	if *modeFlag == "sim" {
		pts := sim.Figure1Interference(pools)
		out := make([]bench.Point, len(pts))
		for i, p := range pts {
			out[i] = bench.Point{X: p.Threads, Value: p.Value}
		}
		bench.WritePoints(os.Stdout, "Figure 1: Inter-Lock Interference (sim)", "locks", "throughput fraction", out)
		return
	}
	var out []bench.Point
	for _, n := range pools {
		out = append(out, bench.Point{X: n, Value: bench.Interference(n, 64, cfg)})
	}
	bench.WritePoints(os.Stdout, "Figure 1: Inter-Lock Interference (native)", "locks", "throughput fraction", out)
}

func runSeriesFigure(cfg bench.Config, locks []string, title, unit string,
	simFn func() sim.Series, nativeFn func(lock string, tc int) float64) {
	if *modeFlag == "sim" {
		s := simFn()
		out := bench.Series{}
		for name, pts := range s {
			row := make([]bench.Point, len(pts))
			for i, p := range pts {
				row[i] = bench.Point{X: p.Threads, Value: p.Value}
			}
			out[name] = row
		}
		bench.WriteSeries(os.Stdout, title+" (sim, X5-2)", "threads", unit, out)
		return
	}
	s := bench.SweepLocks(locks, cfg, nativeFn)
	bench.WriteSeries(os.Stdout, title+" (native)", "threads", "ops/interval", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bravobench:", err)
	os.Exit(1)
}
