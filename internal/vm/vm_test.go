package vm

import (
	"sync"
	"testing"

	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/rwsem"
)

func newStockAS() *AddressSpace {
	return NewAddressSpace(StockSem{S: rwsem.New(rwsem.DefaultConfig())})
}

func newBravoAS() *AddressSpace {
	b := rwsem.NewBravo(rwsem.DefaultConfig())
	b.SetTable(bias.NewTable(bias.DefaultTableSize))
	return NewAddressSpace(BravoSem{S: b})
}

func TestMmapTouchMunmap(t *testing.T) {
	for _, mk := range []func() *AddressSpace{newStockAS, newBravoAS} {
		as := mk()
		task := rwsem.NewTask()
		const length = 64 * PageSize
		addr, err := as.Mmap(task, length, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := as.Touch(task, addr, length); err != nil {
			t.Fatal(err)
		}
		v := as.Find(task, addr)
		if v == nil || v.Populated() != 64 {
			t.Fatalf("expected 64 populated pages, got %v", v)
		}
		if err := as.Munmap(task, addr); err != nil {
			t.Fatal(err)
		}
		if as.VMACount(task) != 0 {
			t.Fatal("VMA leaked after munmap")
		}
		faults, mmaps, munmaps := as.Stats()
		if faults != 64 || mmaps != 1 || munmaps != 1 {
			t.Fatalf("stats = %d/%d/%d, want 64/1/1", faults, mmaps, munmaps)
		}
	}
}

func TestMmapValidation(t *testing.T) {
	as := newStockAS()
	task := rwsem.NewTask()
	if _, err := as.Mmap(task, 0, false); err == nil {
		t.Fatal("zero-length mmap accepted")
	}
	if _, err := as.Mmap(task, PageSize+1, false); err == nil {
		t.Fatal("unaligned mmap accepted")
	}
}

func TestFaultOutsideMapping(t *testing.T) {
	as := newStockAS()
	task := rwsem.NewTask()
	if _, err := as.PageFault(task, 0xdead000); err == nil {
		t.Fatal("fault on unmapped address succeeded")
	}
}

func TestMunmapUnknownAddress(t *testing.T) {
	as := newStockAS()
	task := rwsem.NewTask()
	if err := as.Munmap(task, 0x1000); err == nil {
		t.Fatal("munmap of unknown address succeeded")
	}
}

func TestRepeatFaultIsNotFresh(t *testing.T) {
	as := newStockAS()
	task := rwsem.NewTask()
	addr, _ := as.Mmap(task, PageSize, false)
	fresh, err := as.PageFault(task, addr)
	if err != nil || !fresh {
		t.Fatalf("first fault: fresh=%v err=%v", fresh, err)
	}
	fresh, err = as.PageFault(task, addr)
	if err != nil || fresh {
		t.Fatalf("second fault: fresh=%v err=%v", fresh, err)
	}
}

func TestSharedMappingBumpsBacking(t *testing.T) {
	as := newStockAS()
	task := rwsem.NewTask()
	addr, _ := as.Mmap(task, 4*PageSize, true)
	if err := as.Touch(task, addr, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	if got := as.sharedFile.Load(); got != 4 {
		t.Fatalf("backing refs = %d, want 4", got)
	}
}

func TestVMAOrderingManyMappings(t *testing.T) {
	as := newStockAS()
	task := rwsem.NewTask()
	addrs := make([]uint64, 32)
	for i := range addrs {
		a, err := as.Mmap(task, PageSize*uint64(i+1), false)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = a
	}
	// Every mapping must be findable at base, middle and end-1.
	for i, a := range addrs {
		length := PageSize * uint64(i+1)
		for _, off := range []uint64{0, length / 2, length - 1} {
			if v := as.Find(task, a+off); v == nil || v.Start != a {
				t.Fatalf("lookup failed for mapping %d at offset %d", i, off)
			}
		}
	}
	// Guard gaps must not resolve.
	if v := as.Find(task, addrs[0]+PageSize); v != nil {
		t.Fatal("guard page resolved to a VMA")
	}
}

func TestConcurrentFaultsAndMmaps(t *testing.T) {
	// The will-it-scale access pattern in miniature: faulting threads
	// against mapping churn, on both kernels.
	for _, mk := range []func() *AddressSpace{newStockAS, newBravoAS} {
		as := mk()
		setup := rwsem.NewTask()
		const length = 16 * PageSize
		base, err := as.Mmap(setup, length, false)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				task := rwsem.NewTask()
				for i := 0; i < 300; i++ {
					off := uint64(i%16) << PageShift
					if _, err := as.PageFault(task, base+off); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				task := rwsem.NewTask()
				for i := 0; i < 100; i++ {
					a, err := as.Mmap(task, PageSize, false)
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := as.PageFault(task, a); err != nil {
						t.Error(err)
						return
					}
					if err := as.Munmap(task, a); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

func TestConcurrentFreshFaultCountsExact(t *testing.T) {
	// Racing faults on the same pages must populate each page exactly once.
	as := newStockAS()
	setup := rwsem.NewTask()
	const pages = 64
	base, _ := as.Mmap(setup, pages*PageSize, false)
	var wg sync.WaitGroup
	freshCounts := make([]int, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			task := rwsem.NewTask()
			for p := 0; p < pages; p++ {
				fresh, err := as.PageFault(task, base+uint64(p)<<PageShift)
				if err != nil {
					t.Error(err)
					return
				}
				if fresh {
					freshCounts[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range freshCounts {
		total += c
	}
	if total != pages {
		t.Fatalf("pages populated %d times, want exactly %d", total, pages)
	}
}
