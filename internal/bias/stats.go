package bias

import (
	"fmt"
	"sync/atomic"
)

// Stats counts BRAVO path events, following the breakdown the paper's
// methodology notes call for: fast reads, slow reads split by cause
// (bias disabled / table collision / recheck race / handle untrackable),
// writes split into those that revoked bias and those that did not, and
// revocation cost.
//
// Stats collection is optional; the counters are shared atomics and add
// measurable coherence traffic, exactly like the kernel's lockstat (§6: "we
// kept it disabled during performance measurements as it adds a probing
// effect").
type Stats struct {
	FastRead      atomic.Uint64 // fast-path read acquisitions
	SlowDisabled  atomic.Uint64 // slow reads: RBias was clear
	SlowCollision atomic.Uint64 // slow reads: home slot occupied
	SlowRaced     atomic.Uint64 // slow reads: RBias cleared between publish and recheck
	SlowHandle    atomic.Uint64 // slow reads: reader handle could not track another fast hold
	WriteNormal   atomic.Uint64 // writes with no revocation
	WriteRevoke   atomic.Uint64 // writes that performed revocation
	RevokeNanos   atomic.Int64  // total nanoseconds spent in revocation (scan + wait)
	RevokeScanned atomic.Uint64 // total slots examined by revocation scans
	RevokeWaits   atomic.Uint64 // conflicting fast readers awaited during revocations
}

// Snapshot is an immutable copy of Stats.
type Snapshot struct {
	FastRead      uint64
	SlowDisabled  uint64
	SlowCollision uint64
	SlowRaced     uint64
	SlowHandle    uint64
	WriteNormal   uint64
	WriteRevoke   uint64
	RevokeNanos   int64
	RevokeScanned uint64
	RevokeWaits   uint64
}

// Snapshot returns a point-in-time copy of the counters.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		FastRead:      s.FastRead.Load(),
		SlowDisabled:  s.SlowDisabled.Load(),
		SlowCollision: s.SlowCollision.Load(),
		SlowRaced:     s.SlowRaced.Load(),
		SlowHandle:    s.SlowHandle.Load(),
		WriteNormal:   s.WriteNormal.Load(),
		WriteRevoke:   s.WriteRevoke.Load(),
		RevokeNanos:   s.RevokeNanos.Load(),
		RevokeScanned: s.RevokeScanned.Load(),
		RevokeWaits:   s.RevokeWaits.Load(),
	}
}

// Reads returns the total number of read acquisitions.
func (s Snapshot) Reads() uint64 {
	return s.FastRead + s.SlowDisabled + s.SlowCollision + s.SlowRaced + s.SlowHandle
}

// Writes returns the total number of write acquisitions.
func (s Snapshot) Writes() uint64 { return s.WriteNormal + s.WriteRevoke }

// FastFraction returns NFast/(NFast+NSlow), the fast-read fraction the
// paper's reporting notes request.
func (s Snapshot) FastFraction() float64 {
	r := s.Reads()
	if r == 0 {
		return 0
	}
	return float64(s.FastRead) / float64(r)
}

// String renders the snapshot in a compact single-line form.
func (s Snapshot) String() string {
	return fmt.Sprintf(
		"reads=%d (fast=%d disabled=%d collision=%d raced=%d handle=%d, fast%%=%.1f) writes=%d (revoke=%d) revoke=%dns scanned=%d waits=%d",
		s.Reads(), s.FastRead, s.SlowDisabled, s.SlowCollision, s.SlowRaced, s.SlowHandle,
		100*s.FastFraction(), s.Writes(), s.WriteRevoke,
		s.RevokeNanos, s.RevokeScanned, s.RevokeWaits)
}
