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

func TestEngineInhibitNAndPolicyComposeInAnyOrder(t *testing.T) {
	// SetInhibitN before SetPolicy: the multiplier lands on the policy.
	e1 := &Engine{}
	e1.SetInhibitN(3)
	e1.SetPolicy(NewInhibitPolicy(0))
	e1.Init()
	if p := e1.PolicyInUse().(*InhibitPolicy); p.N != 3 {
		t.Fatalf("SetInhibitN then SetPolicy: N = %d, want 3", p.N)
	}
	// SetPolicy before SetInhibitN: same outcome.
	e2 := &Engine{}
	e2.SetPolicy(NewInhibitPolicy(0))
	e2.SetInhibitN(3)
	e2.Init()
	if p := e2.PolicyInUse().(*InhibitPolicy); p.N != 3 {
		t.Fatalf("SetPolicy then SetInhibitN: N = %d, want 3", p.N)
	}
	// A non-inhibit policy is never replaced by SetInhibitN, in either order.
	e3 := &Engine{}
	e3.SetInhibitN(3)
	e3.SetPolicy(AlwaysPolicy{})
	e3.Init()
	if _, ok := e3.PolicyInUse().(AlwaysPolicy); !ok {
		t.Fatalf("SetInhibitN replaced an explicit policy: %#v", e3.PolicyInUse())
	}
	e4 := &Engine{}
	e4.SetPolicy(AlwaysPolicy{})
	e4.SetInhibitN(3)
	e4.Init()
	if _, ok := e4.PolicyInUse().(AlwaysPolicy); !ok {
		t.Fatalf("SetInhibitN after SetPolicy replaced it: %#v", e4.PolicyInUse())
	}
	// SetInhibitN alone tunes the default policy.
	e5 := &Engine{}
	e5.SetInhibitN(3)
	e5.Init()
	if p := e5.PolicyInUse().(*InhibitPolicy); p.N != 3 {
		t.Fatalf("SetInhibitN alone: default policy N = %d, want 3", p.N)
	}
}

// TestEngineAdaptiveSetterOrderConverges extends the "tunes, never replaces"
// ordering contract to an Adaptor policy: SetPolicy(adaptor) and SetInhibitN
// in either order leave the adaptor installed with the tuned multiplier, and
// bias gated by its mode.
func TestEngineAdaptiveSetterOrderConverges(t *testing.T) {
	for _, policyFirst := range []bool{true, false} {
		e, ad := &Engine{}, NewAdaptor(Thresholds{})
		if policyFirst {
			e.SetPolicy(ad)
			e.SetInhibitN(5)
		} else {
			e.SetInhibitN(5)
			e.SetPolicy(ad)
		}
		e.SetTable(NewTable(DefaultTableSize))
		e.Init()
		if e.PolicyInUse() != Policy(ad) || ad.th.InhibitN != 5 {
			t.Fatalf("policyFirst=%v: policy %#v, N = %d; want the adaptor with N = 5", policyFirst, e.PolicyInUse(), ad.th.InhibitN)
		}
		for _, m := range []Mode{ModeBiased, ModeNeutral, ModeBiased} {
			e.forceBias(false)
			ad.ForceMode(m)
			e.MaybeEnable()
			if e.Enabled() != (m == ModeBiased) {
				t.Fatalf("policyFirst=%v: bias enabled = %v in mode %v", policyFirst, e.Enabled(), m)
			}
		}
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

func TestEngineEpochCountsEnablements(t *testing.T) {
	e, _ := newEngine(AlwaysPolicy{})
	if e.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d", e.Epoch())
	}
	e.MaybeEnable()
	if e.Epoch() != 1 {
		t.Fatalf("epoch after enable = %d, want 1", e.Epoch())
	}
	e.MaybeEnable() // already enabled: no flip, no bump
	if e.Epoch() != 1 {
		t.Fatalf("epoch bumped without a flip: %d", e.Epoch())
	}
	e.Revoke()
	e.MaybeEnable()
	if e.Epoch() != 2 {
		t.Fatalf("epoch after revoke+enable = %d, want 2", e.Epoch())
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

func TestEngineSecondProbeRescuesCollision(t *testing.T) {
	tab := NewTable(2)
	e := &Engine{}
	st := &Stats{}
	e.SetTable(tab)
	e.SetPolicy(AlwaysPolicy{})
	e.SetStats(st)
	e.SetSecondProbe()
	e.Init()
	e.MaybeEnable()
	// Find an identity whose two probes land in different slots, then
	// occupy its primary slot with a foreign lock.
	id := uint64(0)
	for ; id < 1000; id++ {
		if tab.Index(e.ID(), id) != tab.Index2(e.ID(), id) {
			break
		}
	}
	idx := tab.Index(e.ID(), id)
	if _, ok := tab.TryPublishAt(idx, uintptr(0xF00D0)); !ok {
		t.Fatal("setup publish failed")
	}
	got, ok := e.TryPublish(id)
	if !ok || got.Index() != tab.Index2(e.ID(), id) {
		t.Fatalf("second probe did not rescue the collision: ok=%v idx=%d (%s)", ok, got.Index(), st.Snapshot())
	}
	e.ClearFast(got)
	tab.Clear(idx)
}

func TestEngineRandomizedIndexDisperses(t *testing.T) {
	e, _ := newEngine(AlwaysPolicy{}, func(e *Engine) { e.SetRandomizedIndex() })
	e.MaybeEnable()
	seen := map[uint32]bool{}
	for i := 0; i < 32; i++ {
		tok, ok := e.TryFast(7) // same identity every time
		if !ok {
			t.Fatal("randomized fast path failed on empty table")
		}
		seen[tok.Index()] = true
		e.ClearFast(tok)
	}
	if len(seen) < 2 {
		t.Fatal("randomized indices never varied for a fixed identity")
	}
}
