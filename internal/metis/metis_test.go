package metis

import (
	"bytes"
	"strings"
	"testing"

	"github.com/bravolock/bravo/internal/rwsem"
	"github.com/bravolock/bravo/internal/vm"
)

// newStockAS builds an address space over the stock rwsem, newBravoAS one
// over the BRAVO rwsem: the two "kernels" of Tables 1–2.
func newStockAS() *vm.AddressSpace { return vm.NewAddressSpace(rwsem.New(rwsem.DefaultConfig())) }

func newBravoAS() *vm.AddressSpace { return vm.NewAddressSpace(rwsem.NewBravo(rwsem.DefaultConfig())) }

func TestGenerateCorpusDeterministic(t *testing.T) {
	a := GenerateCorpus(1000, 42)
	b := GenerateCorpus(1000, 42)
	if !bytes.Equal(a, b) {
		t.Fatal("corpus not deterministic in seed")
	}
	if words := len(bytes.Fields(a)); words != 1000 {
		t.Fatalf("corpus has %d words, want 1000", words)
	}
}

func TestSplitCorpusPreservesWords(t *testing.T) {
	corpus := GenerateCorpus(503, 7)
	want := len(bytes.Fields(corpus))
	for _, n := range []int{1, 2, 3, 8, 16} {
		splits := SplitCorpus(corpus, n)
		got := 0
		for _, s := range splits {
			got += len(bytes.Fields(s))
		}
		if got != want {
			t.Fatalf("splits=%d: %d words, want %d", n, got, want)
		}
	}
}

func TestWCCountsExactly(t *testing.T) {
	as := newStockAS()
	corpus := []byte("lock reader lock writer lock bias reader")
	res := WC(as, corpus, 2)
	if res.Values["lock"] != 3 || res.Values["reader"] != 2 || res.Values["writer"] != 1 || res.Values["bias"] != 1 {
		t.Fatalf("counts wrong: %v", res.Values)
	}
	if len(res.Keys) != 4 {
		t.Fatalf("distinct keys = %d, want 4", len(res.Keys))
	}
	if !strings.HasPrefix(strings.Join(res.Keys, ","), "bias,lock") {
		t.Fatalf("keys not sorted: %v", res.Keys)
	}
}

func TestWCMatchesAcrossKernelsAndParallelism(t *testing.T) {
	corpus := GenerateCorpus(20000, 99)
	ref := WC(newStockAS(), corpus, 1)
	for _, workers := range []int{2, 4, 8} {
		stock := WC(newStockAS(), corpus, workers)
		bravo := WC(newBravoAS(), corpus, workers)
		for _, k := range ref.Keys {
			if stock.Values[k] != ref.Values[k] {
				t.Fatalf("stock workers=%d: %q = %d, want %d", workers, k, stock.Values[k], ref.Values[k])
			}
			if bravo.Values[k] != ref.Values[k] {
				t.Fatalf("bravo workers=%d: %q = %d, want %d", workers, k, bravo.Values[k], ref.Values[k])
			}
		}
	}
}

func TestWCGeneratesMMTraffic(t *testing.T) {
	as := newStockAS()
	corpus := GenerateCorpus(50000, 3)
	WC(as, corpus, 4)
	faults, mmaps, _ := as.Stats()
	if mmaps == 0 {
		t.Fatal("wc performed no simulated mmaps")
	}
	if faults == 0 {
		t.Fatal("wc performed no simulated page faults")
	}
	// Metis is read-heavy on mmap_sem: faults must dominate mmaps.
	if faults < mmaps*4 {
		t.Fatalf("expected fault-dominated mix, got faults=%d mmaps=%d", faults, mmaps)
	}
}

func TestWrmemTotals(t *testing.T) {
	const workers, splits, wordsPer = 4, 8, 2000
	res := Wrmem(newBravoAS(), workers, splits, wordsPer)
	var total uint64
	for _, k := range res.Keys {
		total += res.Values[k]
	}
	if total != splits*wordsPer {
		t.Fatalf("total indexed words = %d, want %d", total, splits*wordsPer)
	}
}

func TestWrmemDeterministicAcrossParallelism(t *testing.T) {
	a := Wrmem(newStockAS(), 1, 4, 500)
	b := Wrmem(newBravoAS(), 4, 4, 500)
	if len(a.Keys) != len(b.Keys) {
		t.Fatalf("key counts differ: %d vs %d", len(a.Keys), len(b.Keys))
	}
	for _, k := range a.Keys {
		if a.Values[k] != b.Values[k] {
			t.Fatalf("%q: %d vs %d", k, a.Values[k], b.Values[k])
		}
	}
}

func TestAllocatorFaultsPages(t *testing.T) {
	as := newStockAS()
	task := rwsem.NewTask()
	alloc := NewAllocator(as, task)
	// Allocate 10 pages' worth in small pieces; every page must fault
	// exactly once.
	for i := 0; i < 40; i++ {
		buf := alloc.Alloc(1024)
		if len(buf) != 1024 {
			t.Fatalf("alloc returned %d bytes", len(buf))
		}
	}
	faults, mmaps, _ := as.Stats()
	if mmaps != 1 {
		t.Fatalf("mmaps = %d, want 1 (one chunk)", mmaps)
	}
	if faults != 10 {
		t.Fatalf("faults = %d, want 10 (40KiB touched)", faults)
	}
}

func TestAllocatorGrowsChunks(t *testing.T) {
	as := newStockAS()
	alloc := NewAllocator(as, rwsem.NewTask())
	for i := 0; i < 3; i++ {
		alloc.Alloc(chunkSize) // each fills a whole chunk
	}
	_, mmaps, _ := as.Stats()
	if mmaps != 3 {
		t.Fatalf("mmaps = %d, want 3", mmaps)
	}
}

func TestAllocatorCopy(t *testing.T) {
	alloc := NewAllocator(newStockAS(), rwsem.NewTask())
	src := []byte("bravo")
	dst := alloc.Copy(src)
	if !bytes.Equal(src, dst) {
		t.Fatal("copy mismatch")
	}
	src[0] = 'x'
	if dst[0] == 'x' {
		t.Fatal("copy aliases source")
	}
}
