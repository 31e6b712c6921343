package kvs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"

	"github.com/bravolock/bravo/internal/rwl"
)

// TestWlockBracketsWriteSections is the bracket itself: wlock leaves the
// shard's sequence odd, wunlock leaves it even and advanced, and a read
// acquisition — anonymous or through a handle — does not move it.
func TestWlockBracketsWriteSections(t *testing.T) {
	for name, mk := range map[string]rwl.Factory{"std": mkStd, "bravo": mkBravo, "adaptive": mkAdaptive} {
		s, err := NewSharded(1, mk)
		if err != nil {
			t.Fatal(err)
		}
		sh := &s.shards[0]
		s0, even := sh.seqc.TryBegin()
		if !even {
			t.Fatalf("%s: fresh shard's sequence is odd", name)
		}
		sh.wlock()
		if _, even := sh.seqc.TryBegin(); even {
			t.Fatalf("%s: sequence even inside a write section", name)
		}
		sh.wunlock()
		s1, even := sh.seqc.TryBegin()
		if !even || !sh.seqc.Retry(s0) {
			t.Fatalf("%s: sequence %d → %d across a write section, want a later even value", name, s0, s1)
		}
		for _, h := range []*rwl.Reader{nil, rwl.NewReader()} {
			tok := sh.rlock(h)
			if sh.seqc.Retry(s1) {
				t.Fatalf("%s: a read acquisition (handle %v) moved the sequence", name, h != nil)
			}
			sh.runlock(h, tok)
		}
		if sh.seqc.Retry(s1) {
			t.Fatalf("%s: a read release moved the sequence", name)
		}
	}
}

// unbracketedLockCalls lists every Lock or Unlock call on a field named lock
// or hlock made outside kvShard.wlock and kvShard.wunlock.
func unbracketedLockCalls(fset *token.FileSet, f *ast.File) []string {
	var bad []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		if fn.Recv != nil && (fn.Name.Name == "wlock" || fn.Name.Name == "wunlock") {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, _ := n.(*ast.CallExpr)
			if call == nil {
				return true
			}
			m, _ := call.Fun.(*ast.SelectorExpr)
			if m == nil || (m.Sel.Name != "Lock" && m.Sel.Name != "Unlock") {
				return true
			}
			if x, _ := m.X.(*ast.SelectorExpr); x != nil && (x.Sel.Name == "lock" || x.Sel.Name == "hlock") {
				bad = append(bad, fset.Position(call.Pos()).String()+" in "+fn.Name.Name)
			}
			return true
		})
	}
	return bad
}

// TestShardWriteLockOnlyThroughWlock keeps the bracketing rule structural:
// in the package's non-test files nothing but wlock/wunlock may write-lock
// a shard's lock field, so no mutation site can forget the sequence bump.
// memtable.go and hashcache.go are exempt: they hold Figures 5–6's
// substrates, whose own lock fields guard reads that always take the lock.
func TestShardWriteLockOnlyThroughWlock(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		n := fi.Name()
		return !strings.HasSuffix(n, "_test.go") && n != "memtable.go" && n != "hashcache.go"
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, f := range pkgs["kvs"].Files {
		files++
		for _, b := range unbracketedLockCalls(fset, f) {
			t.Errorf("%s: write-locks a shard without the seq bracket; use wlock/wunlock", b)
		}
	}
	if files < 10 {
		t.Fatalf("parsed %d files of package kvs; the check is not looking at the package", files)
	}
	// Negative control: the writer the seqstorm mutant exercise describes.
	mutant, err := parser.ParseFile(fset, "mutant.go", `package kvs
func (sh *kvShard) mutantPut(k uint64, v []byte) {
	sh.lock.Lock()
	sh.putLocked(k, v, 0)
	sh.lock.Unlock()
}`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := unbracketedLockCalls(fset, mutant); len(got) != 2 {
		t.Fatalf("checker found %d violations in the unbracketed mutant, want 2: %v", len(got), got)
	}
}
