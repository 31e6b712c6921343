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

// TestEngineInitDefaults: an engine with no Set* call carries no
// configuration block, publishes into the shared table, has no policy
// installed, and runs the paper's inhibit rule itself: after a revocation of
// measured length D, bias stays off until end + 9·D.
func TestEngineInitDefaults(t *testing.T) {
	e := &Engine{}
	e.Init()
	if e.cfg != nil || e.Table() != SharedTable() || e.PolicyInUse() != nil {
		t.Fatalf("default engine: block %p, shared table %v, policy %v",
			e.cfg, e.Table() == SharedTable(), e.PolicyInUse())
	}
	// Stats measure D; the table and the rule stay the defaults.
	st := &Stats{}
	e.SetStats(st)
	if e.Table() != SharedTable() || e.PolicyInUse() != nil {
		t.Fatal("attaching stats changed the table or the policy")
	}
	e.MaybeEnable()
	tok, ok := e.TryFast(7)
	if !ok {
		t.Fatal("fresh engine did not enable bias and publish")
	}
	// A reader held across the revocation makes D long against the clock
	// reads around it, so a multiplier off by one misses the bounds by D.
	go func() {
		time.Sleep(20 * time.Millisecond)
		e.ClearFast(tok)
	}()
	t0 := clock.Nanos()
	e.Revoke()
	t1 := clock.Nanos()
	d := st.RevokeNanos.Load()
	if end := e.until.Load() - DefaultInhibitN*d; end < t0+d || end > t1 {
		t.Fatalf("deadline %d after a %d ns revocation in [%d, %d]: end+9·D puts end outside the call",
			e.until.Load(), d, t0, t1)
	}
	before := clock.Nanos() < e.until.Load()
	e.MaybeEnable()
	if before && e.Enabled() {
		t.Fatal("bias re-enabled before the inhibit deadline")
	}
	e.ForceInhibitUntil(clock.Nanos() - 1)
	e.MaybeEnable()
	if !e.Enabled() {
		t.Fatal("bias not re-enabled after the inhibit deadline")
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
	if e.Table().Load(tok.Index()) != e.ID() {
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
	if e.Table().Occupancy() != 0 {
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
	if pol.until.Load() <= clock.Nanos()-int64(time.Second) {
		t.Fatal("revocation did not push the inhibit deadline")
	}
	e.MaybeEnable()
	if e.Enabled() {
		t.Fatal("bias re-enabled inside the inhibit window")
	}
}
