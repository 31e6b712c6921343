package topo

import (
	"testing"
	"testing/quick"
)

func TestReferenceShapes(t *testing.T) {
	if got := X52.NumCPUs(); got != 72 {
		t.Errorf("X5-2 logical CPUs = %d, want 72 (paper §5)", got)
	}
	if got := X54.NumCPUs(); got != 144 {
		t.Errorf("X5-4 logical CPUs = %d, want 144 (paper §6)", got)
	}
}

func TestSocketPartition(t *testing.T) {
	// Every socket receives the same number of CPUs.
	for _, top := range []Topology{X52, X54, {Sockets: 3, CoresPerSocket: 4, ThreadsPerCore: 1}} {
		counts := make([]int, top.Sockets)
		for cpu := 0; cpu < top.NumCPUs(); cpu++ {
			s := top.SocketOf(cpu)
			if s < 0 || s >= top.Sockets {
				t.Fatalf("SocketOf(%d) = %d out of range", cpu, s)
			}
			counts[s]++
		}
		for s, c := range counts {
			if c != top.CoresPerSocket*top.ThreadsPerCore {
				t.Errorf("socket %d holds %d CPUs, want %d", s, c, top.CoresPerSocket*top.ThreadsPerCore)
			}
		}
	}
}

func TestCoreOfConsistentWithSocket(t *testing.T) {
	top := X52
	for cpu := 0; cpu < top.NumCPUs(); cpu++ {
		core := top.coreOf(cpu)
		if core < 0 || core >= top.Sockets*top.CoresPerSocket {
			t.Fatalf("coreOf(%d) = %d out of range", cpu, core)
		}
		// SMT siblings share a core.
		sib := cpu ^ 1
		if top.coreOf(sib) != core {
			t.Errorf("CPUs %d and %d should share core", cpu, sib)
		}
	}
}

func TestCPUOfInRange(t *testing.T) {
	f := func(id uint64) bool {
		c := X52.CPUOf(id)
		return c >= 0 && c < 72
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHostTopology(t *testing.T) {
	h := Host()
	if !h.Valid() {
		t.Fatal("Host() returned invalid topology")
	}
	if h.NumCPUs() < 1 {
		t.Fatal("Host() has no CPUs")
	}
}

func TestValid(t *testing.T) {
	if (Topology{}).Valid() {
		t.Error("zero topology reported valid")
	}
	if !X52.Valid() {
		t.Error("X52 reported invalid")
	}
}
