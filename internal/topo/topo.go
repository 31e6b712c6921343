// Package topo describes machine topologies.
//
// Several of the paper's locks are topology-sized: the Per-CPU (brlock-style)
// lock holds one sub-lock per logical CPU, and the cohort lock holds one
// reader indicator and one mutex cohort per NUMA node. The paper's testbeds
// are an Oracle X5-2 (2 sockets × 18 cores × 2 threads = 72 CPUs, user-space
// experiments) and an X5-4 (4 × 18 × 2 = 144 CPUs, kernel experiments).
// BRAVO itself is deliberately topology-oblivious; only its competitors and
// the coherence simulator consume this package.
package topo

import "runtime"

// Topology is a symmetric sockets × cores × SMT machine shape.
type Topology struct {
	Sockets        int // NUMA nodes
	CoresPerSocket int
	ThreadsPerCore int
}

// Reference topologies.
var (
	// X52 is the user-space evaluation machine (paper §5).
	X52 = Topology{Sockets: 2, CoresPerSocket: 18, ThreadsPerCore: 2}
	// X54 is the kernel evaluation machine (paper §6).
	X54 = Topology{Sockets: 4, CoresPerSocket: 18, ThreadsPerCore: 2}
)

// Host returns a single-socket topology matching the current GOMAXPROCS,
// for native runs that should size per-CPU structures to the actual machine.
func Host() Topology {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return Topology{Sockets: 1, CoresPerSocket: n, ThreadsPerCore: 1}
}

// NumCPUs returns the number of logical CPUs.
func (t Topology) NumCPUs() int {
	return t.Sockets * t.CoresPerSocket * t.ThreadsPerCore
}

// SocketOf returns the NUMA node of a logical CPU. CPUs are numbered the way
// Linux numbers them on these machines: socket-major, then core, then SMT
// sibling — CPU c lives on socket c / (CoresPerSocket·ThreadsPerCore).
func (t Topology) SocketOf(cpu int) int {
	return (cpu / (t.CoresPerSocket * t.ThreadsPerCore)) % t.Sockets
}

// coreOf returns the global physical-core index of a logical CPU.
func (t Topology) coreOf(cpu int) int {
	return (cpu / t.ThreadsPerCore) % (t.Sockets * t.CoresPerSocket)
}

// CPUOf maps an arbitrary identity (e.g. a goroutine ID) to a logical CPU.
func (t Topology) CPUOf(id uint64) int {
	return int(id % uint64(t.NumCPUs()))
}

// Valid reports whether all dimensions are positive.
func (t Topology) Valid() bool {
	return t.Sockets > 0 && t.CoresPerSocket > 0 && t.ThreadsPerCore > 0
}
