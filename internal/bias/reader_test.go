package bias

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// biasedEngine returns an engine with bias enabled on a private table.
func biasedEngine(t *testing.T, opts ...func(*Engine)) (*Engine, *Stats) {
	t.Helper()
	e, st := newEngine(AlwaysPolicy{}, opts...)
	e.MaybeEnable()
	if !e.Enabled() {
		t.Fatal("setup: bias not enabled")
	}
	return e, st
}

func TestReaderSteadyStateUsesCachedSlot(t *testing.T) {
	e, st := biasedEngine(t)
	r := NewReaderWithID(77)
	home := e.Table().Index(e.ID(), 77)
	for i := 0; i < 100; i++ {
		idx, ok := e.TryFastH(r)
		if !ok {
			t.Fatalf("iteration %d: fast path failed", i)
		}
		if idx.Index() != home {
			t.Fatalf("iteration %d: slot %d, want cached home %d", i, idx.Index(), home)
		}
		e.ReleaseFastAt(r, idx)
	}
	if st.FastRead.Load() != 100 {
		t.Fatalf("want 100 fast reads: %s", st.Snapshot())
	}
	if slot, ok := r.CachedSlot(e); !ok || slot != home {
		t.Fatalf("cache entry wrong: slot=%d ok=%v", slot, ok)
	}
	if e.Table().Occupancy() != 0 {
		t.Fatal("table dirty after balanced handle reads")
	}
}

// TestHandleRecoversAfterTransientCollision: a foreign identity occupies the
// handle's home slot for one acquisition; once it clears, the next TryFastH
// publishes there with no write — and so no bias flip — in between. A
// per-handle collision memory would keep it diverted until a writer revoked
// and a reader re-enabled: on a lock no writer touches, forever.
func TestHandleRecoversAfterTransientCollision(t *testing.T) {
	e, st := biasedEngine(t)
	r := NewReaderWithID(77)
	home := e.Table().Index(e.ID(), 77)
	if _, ok := e.Table().TryPublishAt(home, uintptr(0xF00D0)); !ok {
		t.Fatal("setup publish failed")
	}
	if _, ok := e.TryFastH(r); ok {
		t.Fatal("fast path succeeded on an occupied slot")
	}
	if st.SlowCollision.Load() != 1 {
		t.Fatalf("collision not counted: %s", st.Snapshot())
	}
	e.Table().Clear(home)
	idx, ok := e.TryFastH(r)
	if !ok || idx.Index() != home {
		t.Fatalf("still diverted: ok=%v idx=%d, want the free home slot %d (%s)", ok, idx.Index(), home, st.Snapshot())
	}
	e.ReleaseFastAt(r, idx)
	if st.WriteRevoke.Load() != 0 || st.SlowCollision.Load() != 1 {
		t.Fatalf("want one collision and no revocation: %s", st.Snapshot())
	}
}

func TestReaderReentrantReadDiverts(t *testing.T) {
	e, st := biasedEngine(t)
	r := NewReaderWithID(9)
	idx, ok := e.TryFastH(r)
	if !ok {
		t.Fatal("first acquisition not fast")
	}
	if _, ok := e.TryFastH(r); ok {
		t.Fatal("reentrant acquisition took the fast path (ambiguous bookkeeping)")
	}
	if st.SlowHandle.Load() != 1 {
		t.Fatalf("reentrant diversion not counted: %s", st.Snapshot())
	}
	e.ReleaseFastAt(r, idx)
}

func TestReaderHeldOverflowDiverts(t *testing.T) {
	tab := NewTable(DefaultTableSize)
	r := NewReader()
	engines := distinctHomes(t, tab, r.ID(), ReaderSlots+2)
	for _, e := range engines {
		e.TryFastH(r)
	}
	if r.Held() != ReaderSlots {
		t.Fatalf("held = %d, want %d", r.Held(), ReaderSlots)
	}
	for _, e := range engines {
		e.ReleaseFast(r)
	}
	if r.Held() != 0 || tab.Occupancy() != 0 {
		t.Fatalf("release pairing broken: held=%d occupancy=%d", r.Held(), tab.Occupancy())
	}
}

func TestReaderEvictionPrefersUnpinned(t *testing.T) {
	tab := NewTable(DefaultTableSize)
	r := NewReader()
	engines := distinctHomes(t, tab, r.ID(), 1+4*ReaderSlots)
	// Hold one engine fast, then roll many others through the cache.
	held := engines[0]
	heldIdx, ok := held.TryFastH(r)
	if !ok {
		t.Fatal("setup hold failed")
	}
	for i, e := range engines[1:] {
		idx, ok := e.TryFastH(r)
		if !ok {
			t.Fatalf("churn engine %d diverted", i)
		}
		e.ReleaseFastAt(r, idx)
	}
	// The pinned entry must have survived every eviction.
	if slot, ok := r.CachedSlot(held); !ok || slot != heldIdx.Index() {
		t.Fatal("eviction displaced a held entry")
	}
	held.ReleaseFastAt(r, heldIdx)
}

func TestReaderUnbalancedFastReleasePanics(t *testing.T) {
	e, _ := biasedEngine(t)
	r := NewReaderWithID(5)
	idx, ok := e.TryFastH(r)
	if !ok {
		t.Fatal("setup acquisition failed")
	}
	e.ReleaseFastAt(r, idx)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double fast release did not panic")
			}
		}()
		e.ReleaseFastAt(r, idx)
	}()
	// Release without any acquisition on a fresh handle.
	fresh := NewReaderWithID(6)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("release-without-acquire did not panic")
			}
		}()
		e.ReleaseFastAt(fresh, 0)
	}()
}

func TestReaderSlowHoldAccounting(t *testing.T) {
	e, _ := newEngine(NeverPolicy{}) // all reads slow
	r := NewReaderWithID(5)
	e.SlowLockedH(r)
	e.SlowLockedH(r)
	e.SlowUnlockedH(r)
	e.SlowUnlockedH(r)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unbalanced slow release did not panic")
			}
		}()
		e.SlowUnlockedH(r)
	}()
}

func TestReaderUntrackedSlowHoldsNeverFalsePanic(t *testing.T) {
	// Pin the whole cache with fast holds, then take slow acquisitions that
	// cannot be tracked; their releases must drain silently.
	tab := NewTable(DefaultTableSize)
	r := NewReader()
	mk := func() *Engine {
		e := &Engine{}
		e.SetTable(tab)
		e.SetPolicy(AlwaysPolicy{})
		e.Init()
		e.MaybeEnable()
		return e
	}
	pinned := distinctHomes(t, tab, r.ID(), ReaderSlots)
	for i := range pinned {
		if _, ok := pinned[i].TryFastH(r); !ok {
			t.Fatalf("pin %d failed", i)
		}
	}
	extra := mk()
	extra.SlowLockedH(r) // untrackable: every entry pinned
	extra.SlowUnlockedH(r)
	for _, e := range pinned {
		e.ReleaseFast(r)
	}
}

// probeCallers maps publishAt and probe to the functions whose bodies call
// them as methods; package-qualified calls are not theirs.
func probeCallers(files []*ast.File) map[string][]string {
	callers := map[string][]string{}
	for _, f := range files {
		imported := map[string]bool{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			imported[p[strings.LastIndex(p, "/")+1:]] = true
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, _ := n.(*ast.CallExpr)
				if call == nil {
					return true
				}
				m, _ := call.Fun.(*ast.SelectorExpr)
				if m == nil {
					return true
				}
				if pkg, ok := m.X.(*ast.Ident); ok && imported[pkg.Name] {
					return true
				}
				switch m.Sel.Name {
				case "publishAt", "probe":
					callers[m.Sel.Name] = append(callers[m.Sel.Name], fn.Name.Name)
				}
				return true
			})
		}
	}
	return callers
}

// probeViolations lists every call that breaks the one-probe-sequence rule:
// publishAt is called only from probe, and probe only from TryPublish and
// TryFastH.
func probeViolations(callers map[string][]string) []string {
	allowed := map[string]map[string]bool{
		"publishAt": {"probe": true},
		"probe":     {"TryPublish": true, "TryFastH": true},
	}
	var bad []string
	for callee, fns := range callers {
		for _, fn := range fns {
			if !allowed[callee][fn] {
				bad = append(bad, fmt.Sprintf("%s calls %s", fn, callee))
			}
		}
	}
	sort.Strings(bad)
	return bad
}

// parentTryFastH is TryFastH as it stood before it shared the probe sequence
// (commit 3c7d4e9), comments and its collision-memory and second-probe
// branches elided: the negative control TestOneProbeSequence must refute.
const parentTryFastH = `package bias

func (e *Engine) TryFastH(r *Reader) (SlotToken, bool) {
	ent := r.lookup(e)
	if tok, ok, done := e.publishAt(ent.slot); done {
		if ok {
			ent.gen = tok.Gen()
			ent.flags |= entFastHeld
		}
		return tok, ok
	}
	home := e.table.Index(e.ID(), r.id)
	if home != ent.slot {
		if tok, ok, done := e.publishAt(home); done {
			if ok {
				ent.slot = home
				ent.gen = tok.Gen()
				ent.flags |= entFastHeld
			}
			return tok, ok
		}
	}
	e.noteCollision()
	return 0, false
}
`

// TestOneProbeSequence pins, in the source, that every fast read — anonymous
// or through a handle — publishes through one probe sequence, so a handle
// can never again keep a second copy of it with its own rules.
func TestOneProbeSequence(t *testing.T) {
	fset := token.NewFileSet()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	callers := probeCallers(files)
	for _, v := range probeViolations(callers) {
		t.Error(v)
	}
	got := strings.Join(callers["probe"], ",")
	if got != "TryPublish,TryFastH" && got != "TryFastH,TryPublish" {
		t.Errorf("probe is called from [%s], want TryPublish and TryFastH once each", got)
	}
	// Negative control: the parent's handle path, which re-implemented the
	// sequence beside TryPublish, must fail the same check.
	parent, err := parser.ParseFile(fset, "parent.go", parentTryFastH, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := probeViolations(probeCallers([]*ast.File{parent}))
	want := []string{"TryFastH calls publishAt", "TryFastH calls publishAt"}
	if fmt.Sprint(bad) != fmt.Sprint(want) {
		t.Errorf("negative control: violations %q, want %q", bad, want)
	}
}
