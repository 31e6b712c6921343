// Benchmark entry points: one benchmark per figure and table of the paper's
// evaluation, plus ablations for the design choices DESIGN.md calls out.
//
// Figure benches drive the deterministic coherence simulator on the paper's
// topologies and report the headline comparison as custom metrics (who wins
// and by what factor); cmd/bravobench prints the full row-by-row series.
// Table benches and micro/ablation benches run natively.
//
//	go test -bench=. -benchmem
package bravo_test

import (
	"testing"
	"time"

	bravo "github.com/bravolock/bravo"
	"github.com/bravolock/bravo/internal/bench"
	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/sim"
)

// --- Lock micro-benchmarks -------------------------------------------------

func lockLineup() map[string]func() bravo.RWLock {
	return map[string]func() bravo.RWLock{
		"ba":            bravo.NewBA,
		"bravo-ba":      func() bravo.RWLock { return bravo.New(bravo.NewBA()) },
		"pthread":       bravo.NewPthread,
		"bravo-pthread": func() bravo.RWLock { return bravo.New(bravo.NewPthread()) },
		"go-rw":         bravo.NewGoRW,
		"bravo-go":      func() bravo.RWLock { return bravo.New(bravo.NewGoRW()) },
	}
}

func BenchmarkUncontendedRead(b *testing.B) {
	for name, mk := range lockLineup() {
		b.Run(name, func(b *testing.B) {
			l := mk()
			// Warm: engage bias on BRAVO variants.
			tok := l.RLock()
			l.RUnlock(tok)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tok := l.RLock()
				l.RUnlock(tok)
			}
		})
	}
}

func BenchmarkUncontendedWrite(b *testing.B) {
	for name, mk := range lockLineup() {
		b.Run(name, func(b *testing.B) {
			l := mk()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Lock()
				l.Unlock()
			}
		})
	}
}

func BenchmarkParallelRead(b *testing.B) {
	for name, mk := range lockLineup() {
		b.Run(name, func(b *testing.B) {
			l := mk()
			tok := l.RLock()
			l.RUnlock(tok)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					tok := l.RLock()
					l.RUnlock(tok)
				}
			})
		})
	}
}

// --- Figure benches (simulated paper topologies) ---------------------------

// reportRatio emits a/b as a custom metric.
func reportRatio(b *testing.B, name string, a, c float64) {
	b.Helper()
	if c != 0 {
		b.ReportMetric(a/c, name)
	}
}

func BenchmarkFigure1Interference(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		pts := sim.Figure1Interference([]int{64})
		worst = pts[0].Value
	}
	b.ReportMetric(worst, "frac@64locks")
}

func BenchmarkFigure2Alternator(b *testing.B) {
	var s sim.Series
	for i := 0; i < b.N; i++ {
		s = sim.Figure2Alternator([]int{50})
	}
	reportRatio(b, "bravo/ba@50thr", s["BRAVO-BA"][0].Value, s["BA"][0].Value)
}

func BenchmarkFigure3TestRWLock(b *testing.B) {
	var s sim.Series
	for i := 0; i < b.N; i++ {
		s = sim.Figure3TestRWLock([]int{50})
	}
	reportRatio(b, "bravo/ba@50thr", s["BRAVO-BA"][0].Value, s["BA"][0].Value)
	reportRatio(b, "bravo/percpu@50thr", s["BRAVO-BA"][0].Value, s["Per-CPU"][0].Value)
}

func BenchmarkFigure4RWBench(b *testing.B) {
	for _, sub := range []struct {
		name string
		prob float64
	}{
		{"a_90pct", 0.9}, {"b_50pct", 0.5}, {"c_10pct", 0.1},
		{"d_1pct", 0.01}, {"e_01pct", 0.001}, {"f_001pct", 0.0001},
	} {
		b.Run(sub.name, func(b *testing.B) {
			var s sim.Series
			for i := 0; i < b.N; i++ {
				s = sim.Figure4RWBench([]int{50}, sub.prob)
			}
			reportRatio(b, "bravo/ba@50thr", s["BRAVO-BA"][0].Value, s["BA"][0].Value)
		})
	}
}

func BenchmarkFigure5ReadWhileWriting(b *testing.B) {
	var s sim.Series
	for i := 0; i < b.N; i++ {
		s = sim.Figure5ReadWhileWriting([]int{50})
	}
	reportRatio(b, "bravo/ba@50thr", s["BRAVO-BA"][0].Value, s["BA"][0].Value)
}

func BenchmarkFigure6HashTable(b *testing.B) {
	var s sim.Series
	for i := 0; i < b.N; i++ {
		s = sim.Figure6HashTable([]int{50})
	}
	reportRatio(b, "bravo/ba@50thr", s["BRAVO-BA"][0].Value, s["BA"][0].Value)
}

func BenchmarkFigure7Locktorture(b *testing.B) {
	var reads, writes sim.Series
	for i := 0; i < b.N; i++ {
		reads, writes = sim.Figure7Locktorture([]int{16})
	}
	reportRatio(b, "reads_bravo/stock@16thr", reads["BRAVO"][0].Value, reads["stock"][0].Value)
	reportRatio(b, "writes_bravo/stock@16thr", writes["BRAVO"][0].Value, writes["stock"][0].Value)
}

func BenchmarkFigure8aLocktorture(b *testing.B) {
	var s sim.Series
	for i := 0; i < b.N; i++ {
		s = sim.Figure8Locktorture([]int{72}, 50e6)
	}
	reportRatio(b, "bravo/stock@72thr", s["BRAVO"][0].Value, s["stock"][0].Value)
}

func BenchmarkFigure8bLocktorture(b *testing.B) {
	var s sim.Series
	for i := 0; i < b.N; i++ {
		s = sim.Figure8Locktorture([]int{72}, 5000)
	}
	reportRatio(b, "bravo/stock@72thr", s["BRAVO"][0].Value, s["stock"][0].Value)
}

func BenchmarkFigure9aPageFault1(b *testing.B) {
	var s sim.Series
	for i := 0; i < b.N; i++ {
		s = sim.Figure9WillItScale([]int{72}, "page_fault1")
	}
	reportRatio(b, "bravo/stock@72thr", s["BRAVO"][0].Value, s["stock"][0].Value)
}

func BenchmarkFigure9bPageFault2(b *testing.B) {
	var s sim.Series
	for i := 0; i < b.N; i++ {
		s = sim.Figure9WillItScale([]int{72}, "page_fault2")
	}
	reportRatio(b, "bravo/stock@72thr", s["BRAVO"][0].Value, s["stock"][0].Value)
}

func BenchmarkFigure9cMmap1(b *testing.B) {
	var s sim.Series
	for i := 0; i < b.N; i++ {
		s = sim.Figure9WillItScale([]int{16}, "mmap1")
	}
	reportRatio(b, "bravo/stock@16thr", s["BRAVO"][0].Value, s["stock"][0].Value)
}

func BenchmarkFigure9dMmap2(b *testing.B) {
	var s sim.Series
	for i := 0; i < b.N; i++ {
		s = sim.Figure9WillItScale([]int{16}, "mmap2")
	}
	reportRatio(b, "bravo/stock@16thr", s["BRAVO"][0].Value, s["stock"][0].Value)
}

// --- Table benches (native Metis) ------------------------------------------

func BenchmarkTable1MetisWC(b *testing.B) {
	var stock, brv time.Duration
	for i := 0; i < b.N; i++ {
		stock = bench.MetisWC(bench.Stock, 4, 50000)
		brv = bench.MetisWC(bench.Bravo, 4, 50000)
	}
	reportRatio(b, "stock/bravo_runtime", float64(stock), float64(brv))
}

func BenchmarkTable2MetisWrmem(b *testing.B) {
	var stock, brv time.Duration
	for i := 0; i < b.N; i++ {
		stock = bench.MetisWrmem(bench.Stock, 4, 2000)
		brv = bench.MetisWrmem(bench.Bravo, 4, 2000)
	}
	reportRatio(b, "stock/bravo_runtime", float64(stock), float64(brv))
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkRevocationScan measures the writer's table scan rate; the paper
// reports ≈1.1 ns/slot on its testbed.
func BenchmarkRevocationScan(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		rate = bench.RevocationScanRate(bias.DefaultTableSize, 20)
	}
	b.ReportMetric(rate, "ns/slot")
}

// BenchmarkAblationTableSize sweeps the table-size vs revocation-cost
// trade-off ("dynamic sizing of the visible readers table" future work).
func BenchmarkAblationTableSize(b *testing.B) {
	for _, size := range []int{256, 1024, 4096, 16384} {
		b.Run(benchName("slots", size), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				rate = bench.RevocationScanRate(size, 20)
			}
			b.ReportMetric(rate, "ns/slot")
			b.ReportMetric(rate*float64(size), "ns/revocation")
		})
	}
}

// BenchmarkAblationInhibitN sweeps the writer slow-down guard N: larger N
// means rarer revocation but slower bias recovery.
func BenchmarkAblationInhibitN(b *testing.B) {
	for _, n := range []int64{1, 3, 9, 99} {
		b.Run(benchName("n", int(n)), func(b *testing.B) {
			l := bravo.New(bravo.NewBA(),
				bravo.WithTable(bravo.NewTable(bias.DefaultTableSize)),
				bravo.WithPolicy(bravo.NewInhibitPolicy(n)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tok := l.RLock()
				l.RUnlock(tok)
				if i%1024 == 0 {
					l.Lock()
					l.Unlock()
				}
			}
		})
	}
}

// BenchmarkAblationPolicy compares the bias-enabling policies on a
// read-dominated loop with occasional writes.
func BenchmarkAblationPolicy(b *testing.B) {
	policies := map[string]bravo.Policy{
		"inhibit9":  bravo.NewInhibitPolicy(9),
		"bernoulli": &policyBernoulli{},
		"always":    policyAlways{},
		"never":     policyNever{},
	}
	for name, p := range policies {
		b.Run(name, func(b *testing.B) {
			l := bravo.New(bravo.NewBA(),
				bravo.WithTable(bravo.NewTable(bias.DefaultTableSize)),
				bravo.WithPolicy(p))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tok := l.RLock()
				l.RUnlock(tok)
				if i%4096 == 0 {
					l.Lock()
					l.Unlock()
				}
			}
		})
	}
}

// Policy ablation endpoints, via the public Policy interface.
type policyAlways struct{}

func (policyAlways) ShouldEnable() bool        { return true }
func (policyAlways) RevocationDone(_, _ int64) {}

type policyNever struct{}

func (policyNever) ShouldEnable() bool        { return false }
func (policyNever) RevocationDone(_, _ int64) {}

type policyBernoulli struct{ n uint64 }

func (p *policyBernoulli) ShouldEnable() bool {
	p.n++
	return p.n%100 == 0
}
func (p *policyBernoulli) RevocationDone(_, _ int64) {}

// BenchmarkAblationBravo2D compares the flat Listing 1 table against the
// BRAVO-2D sectored layout on the fast path.
func BenchmarkAblationBravo2D(b *testing.B) {
	tables := map[string]*bravo.Table{
		"flat-4096": bravo.NewTable(4096),
		"2d-16x256": bravo.NewTable2D(16, 256),
	}
	for name, tab := range tables {
		b.Run(name, func(b *testing.B) {
			l := bravo.New(bravo.NewBA(), bravo.WithTable(tab))
			tok := l.RLock()
			l.RUnlock(tok)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tok := l.RLock()
				l.RUnlock(tok)
			}
		})
	}
}

// BenchmarkAblation2DRevocation shows the 2D layout's revocation advantage:
// the scan visits one column instead of the whole table.
func BenchmarkAblation2DRevocation(b *testing.B) {
	tables := map[string]*bravo.Table{
		"flat-4096": bravo.NewTable(4096),
		"2d-16x256": bravo.NewTable2D(16, 256),
	}
	for name, tab := range tables {
		b.Run(name, func(b *testing.B) {
			l := bravo.New(bravo.NewBA(), bravo.WithTable(tab),
				bravo.WithPolicy(bravo.NewInhibitPolicy(1)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tok := l.RLock() // may re-enable bias
				l.RUnlock(tok)
				l.Lock() // revokes when biased
				l.Unlock()
			}
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "-" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
