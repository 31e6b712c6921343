package bias

import (
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/clock"
)

// newEngine returns an initialized engine on a private table with stats and
// the given policy.
func newEngine(pol Policy, opts ...func(*Engine)) (*Engine, *Stats) {
	e := &Engine{}
	st := &Stats{}
	e.SetTable(NewTable(DefaultTableSize))
	e.SetPolicy(pol)
	e.SetStats(st)
	for _, o := range opts {
		o(e)
	}
	e.Init()
	return e, st
}

func TestEngineInitDefaults(t *testing.T) {
	e := &Engine{}
	e.Init()
	if e.Table() != SharedTable() {
		t.Fatal("default table is not the shared table")
	}
	p, ok := e.PolicyInUse().(*InhibitPolicy)
	if !ok || p.N != DefaultInhibitN {
		t.Fatalf("default policy = %#v, want InhibitPolicy N=%d", e.PolicyInUse(), DefaultInhibitN)
	}
}

func TestEngineFastPathRoundTrip(t *testing.T) {
	e, st := newEngine(AlwaysPolicy{})
	if _, ok := e.TryFast(42); ok {
		t.Fatal("fast path succeeded with bias disabled")
	}
	if st.SlowDisabled.Load() != 1 {
		t.Fatalf("disabled read not counted: %s", st.Snapshot())
	}
	e.MaybeEnable()
	if !e.Enabled() {
		t.Fatal("MaybeEnable under AlwaysPolicy did not enable bias")
	}
	tok, ok := e.TryFast(42)
	if !ok {
		t.Fatal("fast path failed on biased engine")
	}
	if e.table.Load(tok.Index()) != e.ID() {
		t.Fatal("published identity is not the engine identity")
	}
	e.ClearFast(tok)
	if st.FastRead.Load() != 1 {
		t.Fatalf("fast read not counted: %s", st.Snapshot())
	}
}

func TestEngineRacedReaderFallsBack(t *testing.T) {
	// Reproduce the Listing 1 lines 18–21 race deterministically: a reader
	// that passed the initial RBias check begins its publication after a
	// writer cleared the flag; the recheck must push it down the slow path
	// and clear the slot.
	e, st := newEngine(AlwaysPolicy{})
	e.forceBias(false)
	idx, ok := e.TryPublish(1234)
	if ok {
		t.Fatal("TryPublish must recheck RBias (writer cleared it)")
	}
	if idx != 0 {
		t.Fatal("failed TryPublish returned a slot")
	}
	if e.table.Occupancy() != 0 {
		t.Fatal("raced reader left its slot occupied")
	}
	if st.SlowRaced.Load() != 1 {
		t.Fatalf("raced fallback not recorded: %s", st.Snapshot())
	}
}

func TestEngineRevokeIfEnabled(t *testing.T) {
	e, st := newEngine(AlwaysPolicy{})
	if e.RevokeIfEnabled() {
		t.Fatal("revoked with bias off")
	}
	if st.WriteNormal.Load() != 1 {
		t.Fatalf("normal write not counted: %s", st.Snapshot())
	}
	e.MaybeEnable()
	if !e.RevokeIfEnabled() {
		t.Fatal("did not revoke with bias on")
	}
	if e.Enabled() {
		t.Fatal("bias survived revocation")
	}
	// No fast reader published since bias was enabled: the occupancy summary
	// is empty and the revocation scans nothing.
	if st.WriteRevoke.Load() != 1 || st.RevokeScanned.Load() != 0 {
		t.Fatalf("reader-free revocation: %s, want 1 revoke scanning 0 slots", st.Snapshot())
	}
	// A reader that published and left still marks its sector until the next
	// revocation collects the summary.
	e.MaybeEnable()
	tok, ok := e.TryFast(42)
	if !ok {
		t.Fatal("fast path failed on biased engine")
	}
	e.ClearFast(tok)
	if !e.RevokeIfEnabled() {
		t.Fatal("did not revoke with bias on")
	}
	if st.WriteRevoke.Load() != 2 || st.RevokeScanned.Load() == 0 {
		t.Fatalf("revocation after a published reader scanned nothing: %s", st.Snapshot())
	}
}

func TestEngineRevocationFeedsPolicy(t *testing.T) {
	pol := NewInhibitPolicy(1 << 40)
	e, _ := newEngine(pol)
	e.MaybeEnable()
	e.Revoke()
	if pol.InhibitedUntil() <= clock.Nanos()-int64(time.Second) {
		t.Fatal("revocation did not push the inhibit deadline")
	}
	e.MaybeEnable()
	if e.Enabled() {
		t.Fatal("bias re-enabled inside the inhibit window")
	}
}
