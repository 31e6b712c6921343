package sim

import (
	"os"
	"testing"

	"github.com/bravolock/bravo/internal/topo"
)

// fullSweeps reports whether BRAVO_SIM_FULL is set: the figure tests whose
// full sweeps take tens of seconds then run them as well as the reduced
// forms plain go test runs. CI's bench-smoke job sets it.
func fullSweeps() bool { return os.Getenv("BRAVO_SIM_FULL") != "" }

func TestMachineLocalVsRemoteCosts(t *testing.T) {
	m := NewMachine(topo.X52, DefaultCosts())
	ln := m.NewLine()
	// Cold RMW pays a memory fetch.
	end := m.RMW(0, ln, 0)
	if end != m.Cost.MemoryNs {
		t.Fatalf("cold RMW cost %v, want %v", end, m.Cost.MemoryNs)
	}
	// Repeat by the same CPU is local.
	end2 := m.RMW(0, ln, end)
	if end2-end != m.Cost.LocalNs {
		t.Fatalf("local RMW cost %v, want %v", end2-end, m.Cost.LocalNs)
	}
	// Same-socket stealer pays intra-socket.
	end3 := m.RMW(1, ln, end2)
	if end3-end2 != m.Cost.IntraSocketNs {
		t.Fatalf("intra-socket RMW cost %v, want %v", end3-end2, m.Cost.IntraSocketNs)
	}
	// Cross-socket stealer pays inter-socket (CPU 40 is on socket 1).
	end4 := m.RMW(40, ln, end3)
	if end4-end3 != m.Cost.InterSocketNs {
		t.Fatalf("inter-socket RMW cost %v, want %v", end4-end3, m.Cost.InterSocketNs)
	}
}

func TestHotLineSerializes(t *testing.T) {
	// Two concurrent remote RMWs at the same instant must queue: the second
	// completes one transfer after the first.
	m := NewMachine(topo.X52, DefaultCosts())
	ln := m.NewLine()
	m.RMW(0, ln, 0)
	a := m.RMW(1, ln, 200)
	b := m.RMW(2, ln, 200)
	if b <= a {
		t.Fatalf("concurrent RMWs did not serialize: %v then %v", a, b)
	}
}

func TestSharedLoadsAreCheapAndConcurrent(t *testing.T) {
	m := NewMachine(topo.X52, DefaultCosts())
	ln := m.NewLine()
	m.Store(0, ln, 0)
	first := m.Load(5, ln, 1000) - 1000 // fetch
	again := m.Load(5, ln, 2000) - 2000 // cached
	if again >= first {
		t.Fatalf("repeat load (%v) not cheaper than first (%v)", again, first)
	}
	if again != m.Cost.SharedLoadNs {
		t.Fatalf("cached load cost %v, want %v", again, m.Cost.SharedLoadNs)
	}
	// A store invalidates sharers: the next load fetches again.
	m.Store(1, ln, 3000)
	refetch := m.Load(5, ln, 4000) - 4000
	if refetch == m.Cost.SharedLoadNs {
		t.Fatal("load after invalidation was served from a stale copy")
	}
}

func TestCentralLockExclusionInVirtualTime(t *testing.T) {
	m := NewMachine(topo.X52, DefaultCosts())
	l := NewCentral(m)
	th := &Thread{ID: 0, CPU: 0}
	rStart := l.AcquireRead(th, 0, 100)
	l.ReleaseRead(th, rStart+100)
	wStart := l.AcquireWrite(th, 10, 50) // arrived during the read CS
	if wStart < rStart+100 {
		t.Fatalf("writer admitted at %v during read CS ending %v", wStart, rStart+100)
	}
	l.ReleaseWrite(th, wStart+50)
	r2 := l.AcquireRead(th, wStart+1, 10)
	if r2 < wStart+50 {
		t.Fatalf("reader admitted at %v during write CS ending %v", r2, wStart+50)
	}
}

func TestBravoFastPathIsLocalAfterBias(t *testing.T) {
	m := NewMachine(topo.X52, DefaultCosts())
	b := NewBravo(m, NewCentral(m), NewTable(m, 4096))
	th := &Thread{ID: 3, CPU: 3}
	// First read: slow, enables bias.
	t0 := b.AcquireRead(th, 0, 0)
	t0 = b.ReleaseRead(th, t0)
	if !b.rbias {
		t.Fatal("bias not enabled")
	}
	// Warm the slot line (first fast read pays the cold fetch), then
	// steady-state fast reads must be an order of magnitude cheaper than a
	// contended central RMW.
	t0 = b.AcquireRead(th, t0, 0)
	t0 = b.ReleaseRead(th, t0)
	start := t0
	end := b.AcquireRead(th, start, 0)
	end = b.ReleaseRead(th, end)
	cost := end - start
	if cost > 4*m.Cost.LocalNs+2*m.Cost.SharedLoadNs {
		t.Fatalf("steady-state fast read costs %vns", cost)
	}
}

func TestBravoRevocationBlocksWriterUntilFastReaderLeaves(t *testing.T) {
	m := NewMachine(topo.X52, DefaultCosts())
	b := NewBravo(m, NewCentral(m), NewTable(m, 4096))
	r := &Thread{ID: 1, CPU: 1}
	w := &Thread{ID: 2, CPU: 40}
	t0 := b.AcquireRead(r, 0, 0) // slow; enables bias
	t0 = b.ReleaseRead(r, t0)
	rs := b.AcquireRead(r, t0, 5000) // fast, 5µs CS
	// Writer arriving mid-CS must wait for the fast reader.
	ws := b.AcquireWrite(w, rs+1, 100)
	if ws < rs+5000 {
		t.Fatalf("writer admitted at %v during fast read ending %v", ws, rs+5000)
	}
	b.ReleaseRead(r, rs+5000)
	if b.rbias {
		t.Fatal("bias survived revocation")
	}
	if b.inhibitUntil <= ws {
		t.Fatal("inhibit window not set by revocation")
	}
}

func TestFigure8ShapeStockSaturatesBravoScales(t *testing.T) {
	t.Parallel()
	// The §6.1 modified locktorture (5µs CS, 0 writers): stock rwsem stops
	// scaling once the counter saturates; BRAVO scales across all counts.
	s := Figure8Locktorture([]int{1, 16, 72}, 5000)
	stock, bravo := s["stock"], s["BRAVO"]
	if bravo[2].Value < bravo[1].Value*2 {
		t.Fatalf("BRAVO did not keep scaling: %v", bravo)
	}
	if stock[2].Value > stock[1].Value*2 {
		t.Fatalf("stock kept scaling past saturation: %v", stock)
	}
	if bravo[2].Value < stock[2].Value*2 {
		t.Fatalf("BRAVO (%v) should clearly beat stock (%v) at 72 threads",
			bravo[2].Value, stock[2].Value)
	}
}

func TestFigure8LongCSBothScale(t *testing.T) {
	t.Parallel()
	// With 50ms critical sections, contention is masked and the kernels tie
	// (§6.1: "both versions increase the number of reads linearly").
	s := Figure8Locktorture([]int{1, 16, 72}, 50e6)
	stock, bravo := s["stock"], s["BRAVO"]
	for i := range stock {
		ratio := bravo[i].Value / stock[i].Value
		if ratio < 0.9 || ratio > 1.1 {
			t.Fatalf("kernels diverge at %d threads: stock=%v bravo=%v",
				stock[i].X, stock[i].Value, bravo[i].Value)
		}
	}
	if stock[2].Value < stock[1].Value*3 {
		t.Fatalf("stock should scale with long CS: %v", stock)
	}
}

func TestFigure2ShapeBravoBeatsBA(t *testing.T) {
	t.Parallel()
	s := Figure2Alternator([]int{1, 2, 10, 50})
	ba, bravo := s["BA"], s["BRAVO-BA"]
	// At 10+ threads BRAVO-BA must outperform BA by a wide margin (§5.2).
	for i := 2; i < len(ba); i++ {
		if bravo[i].Value < ba[i].Value*1.5 {
			t.Fatalf("at %d threads BRAVO-BA=%v vs BA=%v: no wide margin",
				ba[i].X, bravo[i].Value, ba[i].Value)
		}
	}
	// All locks drop sharply from 1 to 2 threads (coherent notification).
	if s["BA"][1].Value >= s["BA"][0].Value {
		t.Fatal("no 1→2 thread notification penalty")
	}
}

func TestFigure3ShapeReadDominatedOrdering(t *testing.T) {
	t.Parallel()
	// test_rwlock is extremely read-dominated: Per-CPU best, BRAVO-BA ≫ BA
	// at high thread counts (§5.3). 12 readers is the fewest at which the
	// figure shows the gap: BRAVO-BA reads 2.9× BA there, and 1.02× at 10.
	check := func(threads []int) {
		s := Figure3TestRWLock(threads)
		i := len(threads) - 1
		at := func(name string) float64 { return s[name][i].Value }
		if at("BRAVO-BA") < 2*at("BA") {
			t.Fatalf("BRAVO-BA (%v) should significantly outperform BA (%v) at %d threads",
				at("BRAVO-BA"), at("BA"), threads[i])
		}
		if at("Per-CPU") < at("BA") {
			t.Fatal("Per-CPU should beat BA on a read-dominated workload")
		}
	}
	check([]int{12})
	if fullSweeps() {
		check([]int{1, 10, 50})
	}
}

func TestFigure4ShapeWriteHeavyParity(t *testing.T) {
	t.Parallel()
	// At 90% writes BRAVO must track its underlying lock (no harm), and
	// Per-CPU must fare poorly (writers sweep the array) (§5.4).
	s := Figure4RWBench([]int{10, 50}, 0.9)
	for i := range s["BA"] {
		ba, bravo := s["BA"][i].Value, s["BRAVO-BA"][i].Value
		if bravo < ba*0.85 {
			t.Fatalf("BRAVO-BA harmed a write-heavy workload: %v vs %v", bravo, ba)
		}
	}
	if s["Per-CPU"][1].Value > s["BA"][1].Value {
		t.Fatal("Per-CPU should not win a write-heavy workload")
	}
}

func TestFigure4ShapeReadHeavyWin(t *testing.T) {
	t.Parallel()
	// At 0.01% writes BRAVO-BA approaches Per-CPU and beats BA (§5.4f). 5
	// threads is the fewest at which it does by 2×: 2.1× there, 1.8× at 3.
	check := func(threads []int) {
		s := Figure4RWBench(threads, 0.0001)
		i := len(threads) - 1
		if s["BRAVO-BA"][i].Value < 2*s["BA"][i].Value {
			t.Fatalf("BRAVO-BA (%v) should beat BA (%v) at %d threads, 0.01%% writes",
				s["BRAVO-BA"][i].Value, s["BA"][i].Value, threads[i])
		}
	}
	check([]int{5})
	if fullSweeps() {
		check([]int{20, 50})
	}
}

func TestFigure1InterferenceBounded(t *testing.T) {
	t.Parallel()
	// §5.1: the worst-case penalty from sharing one table across a pool of
	// locks "is always under 6%" on the paper's hardware. Our first-order
	// cost model overstates near-collision false sharing (it has no memory
	// level parallelism), so we assert the qualitative property — the
	// penalty is bounded and modest — with a wider band. With a single lock
	// there is no inter-lock interference at all.
	check := func(pts []Point) {
		for _, p := range pts {
			if p.Value < 0.72 || p.Value > 1.15 {
				t.Fatalf("interference ratio at %d locks = %v, want bounded near 1", p.X, p.Value)
			}
		}
		if pts[0].Value < 0.95 {
			t.Fatalf("single-lock ratio = %v, want ≈1", pts[0].Value)
		}
	}
	// The figure's workload at 1/50 of its horizon reproduces its ratios to
	// within 0.04; the full horizon costs seconds per pool point.
	pools := []int{1, 8, 64, 512}
	pts := make([]Point, len(pools))
	for i, n := range pools {
		h := horizonNs / 50
		pts[i] = Point{X: n, Value: interferenceRun(n, true, h) / interferenceRun(n, false, h)}
	}
	check(pts)
	if fullSweeps() {
		check(Figure1Interference(pools))
	}
}

func TestDeterminism(t *testing.T) {
	t.Parallel()
	a := Figure4RWBench([]int{10}, 0.01)
	b := Figure4RWBench([]int{10}, 0.01)
	for name := range a {
		if a[name][0].Value != b[name][0].Value {
			t.Fatalf("simulation not deterministic for %s", name)
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	t.Parallel()
	// §6.2: page_fault scales better under BRAVO at high thread counts;
	// mmap shows "no significant difference".
	pf := Figure9WillItScale([]int{1, 16, 72}, "page_fault1")
	if pf["BRAVO"][2].Value < pf["stock"][2].Value*1.2 {
		t.Fatalf("BRAVO (%v) should beat stock (%v) on page_fault at 72 threads",
			pf["BRAVO"][2].Value, pf["stock"][2].Value)
	}
	mm := Figure9WillItScale([]int{1, 16}, "mmap1")
	for i := range mm["stock"] {
		ratio := mm["BRAVO"][i].Value / mm["stock"][i].Value
		if ratio < 0.8 || ratio > 1.25 {
			t.Fatalf("mmap1 kernels diverge at %d threads: %v", mm["stock"][i].X, ratio)
		}
	}
}

func TestFigure7WritesDropUnderBravo(t *testing.T) {
	t.Parallel()
	// §6.1: "the stock version has a better [write] result" because BRAVO
	// writers pay revocation against 50ms readers.
	reads, writes := Figure7Locktorture([]int{8})
	if writes["BRAVO"][0].Value > writes["stock"][0].Value {
		t.Fatalf("BRAVO writes (%v) should not exceed stock (%v)",
			writes["BRAVO"][0].Value, writes["stock"][0].Value)
	}
	if reads["BRAVO"][0].Value < reads["stock"][0].Value*0.8 {
		t.Fatalf("BRAVO reads (%v) fell far below stock (%v)",
			reads["BRAVO"][0].Value, reads["stock"][0].Value)
	}
}
