package bench

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	_ "github.com/bravolock/bravo/internal/locks/all"
	"github.com/bravolock/bravo/internal/sim"
	"github.com/bravolock/bravo/internal/xrand"
)

// quick is a fast protocol for smoke tests.
var quick = Config{Interval: 30 * time.Millisecond, Runs: 1, Threads: []int{1, 2}}

func TestRunWorkersCountsAllWorkers(t *testing.T) {
	total := RunWorkers(4, 20*time.Millisecond, func(id int, stop *atomic.Bool) uint64 {
		var n uint64
		for !stop.Load() {
			n++
		}
		return n
	})
	if total == 0 {
		t.Fatal("no work recorded")
	}
}

func TestMedianOddRuns(t *testing.T) {
	cfg := Config{Runs: 3}
	i := 0
	vals := []float64{30, 10, 20}
	got := cfg.Median(func() float64 { v := vals[i]; i++; return v })
	if got != 20 {
		t.Fatalf("median = %v, want 20", got)
	}
}

func TestAlternatorRunsAllLocks(t *testing.T) {
	for _, lock := range []string{"ba", "bravo-ba", "pthread", "bravo-pthread"} {
		for _, threads := range []int{1, 3} {
			steps := Alternator(lock, threads, quick)
			if steps <= 0 {
				t.Errorf("%s/%d: no alternator steps", lock, threads)
			}
		}
	}
}

func TestTestRWLockRuns(t *testing.T) {
	for _, lock := range []string{"ba", "bravo-ba"} {
		if ops := TestRWLock(lock, 2, quick); ops <= 0 {
			t.Errorf("%s: no ops", lock)
		}
	}
}

func TestRWBenchRuns(t *testing.T) {
	for _, prob := range []float64{0.9, 0.01} {
		if ops := RWBench("bravo-ba", 3, prob, quick); ops <= 0 {
			t.Errorf("prob=%v: no ops", prob)
		}
	}
}

func TestInterferenceRatioSane(t *testing.T) {
	r := Interference(4, 4, quick)
	if r <= 0 || r > 3 {
		t.Fatalf("interference ratio %v not sane", r)
	}
}

func TestReadWhileWritingRuns(t *testing.T) {
	if ops := ReadWhileWriting("bravo-ba", 3, quick); ops <= 0 {
		t.Fatal("no reader ops")
	}
}

func TestHashTableBenchRuns(t *testing.T) {
	if ops := HashTableBench("bravo-ba", 3, quick); ops <= 0 {
		t.Fatal("no ops")
	}
}

func TestLocktortureBothKernels(t *testing.T) {
	for _, k := range []Kernel{Stock, Bravo} {
		res := Locktorture(k, 3, 1, 50*time.Microsecond, 10*time.Microsecond, quick)
		if res.Reads == 0 {
			t.Errorf("%s: no read acquisitions", k)
		}
		if res.Writes == 0 {
			t.Errorf("%s: no write acquisitions", k)
		}
	}
}

func TestLocktortureReadOnly(t *testing.T) {
	res := Locktorture(Bravo, 3, 0, 5*time.Microsecond, 0, quick)
	if res.Reads == 0 || res.Writes != 0 {
		t.Fatalf("unexpected counts: %+v", res)
	}
}

func TestWillItScaleAllTests(t *testing.T) {
	for _, test := range []string{"page_fault1", "page_fault2", "mmap1", "mmap2"} {
		for _, k := range []Kernel{Stock, Bravo} {
			v := WillItScale(k, test, 2, 16*4096, quick)
			if v <= 0 {
				t.Errorf("%s/%s: no throughput", k, test)
			}
		}
	}
}

func TestMetisAppsRun(t *testing.T) {
	wc := MetisWC(Bravo, 2, 5000)
	if wc <= 0 {
		t.Fatal("wc reported zero runtime")
	}
	wr := MetisWrmem(Stock, 2, 500)
	if wr <= 0 {
		t.Fatal("wrmem reported zero runtime")
	}
	if s := MetisSpeedup(100*time.Millisecond, 80*time.Millisecond); s != 0.2 {
		t.Fatalf("speedup = %v, want 0.2", s)
	}
	if MetisSpeedup(0, time.Second) != 0 {
		t.Fatal("degenerate speedup not guarded")
	}
}

func TestRevocationScanRatePositive(t *testing.T) {
	rate := RevocationScanRate(4096, 50)
	if rate <= 0 {
		t.Fatal("scan rate not measured")
	}
	// Sanity ceiling: a scan should stay well under 1µs per slot even on a
	// loaded host.
	if rate > 1000 {
		t.Fatalf("scan rate %vns/slot implausible", rate)
	}
}

func TestSweepLocksShape(t *testing.T) {
	s := SweepLocks([]string{"ba", "bravo-ba"}, Config{Threads: []int{1, 2}},
		func(lockName string, threads int) float64 { return float64(threads) })
	if len(s) != 2 || len(s["ba"]) != 2 || s["ba"][1].Value != 2 {
		t.Fatalf("sweep malformed: %+v", s)
	}
}

func TestWriteSeriesFormatting(t *testing.T) {
	var buf bytes.Buffer
	WriteSeries(&buf, "Figure X", "threads", "ops/sec", sim.Series{
		"ba":       {{X: 1, Value: 10}, {X: 2, Value: 20}},
		"bravo-ba": {{X: 1, Value: 11}, {X: 2, Value: 22}},
	})
	out := buf.String()
	if !strings.Contains(out, "Figure X") || !strings.Contains(out, "bravo-ba") {
		t.Fatalf("missing headers:\n%s", out)
	}
	if !strings.Contains(out, "22.0") {
		t.Fatalf("missing data:\n%s", out)
	}
}

func TestWritePointsFormatting(t *testing.T) {
	var buf bytes.Buffer
	WritePoints(&buf, "Figure 1", "locks", "fraction", []sim.Point{{X: 1, Value: 0.99}})
	if !strings.Contains(buf.String(), "0.9900") {
		t.Fatalf("missing data:\n%s", buf.String())
	}
}

func TestWorkAdvancesRNGDeterministically(t *testing.T) {
	a, b := xrand.NewXorShift64(5), xrand.NewXorShift64(5)
	Work(a, 100)
	for i := 0; i < 100; i++ {
		b.Next()
	}
	if a.Next() != b.Next() {
		t.Fatal("Work does not advance the RNG by exactly n steps")
	}
}
