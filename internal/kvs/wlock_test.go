package kvs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
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

// writeSectionCallers names, for each method the write section is built
// from, the only functions allowed to call it: the store's mutators belong
// to applyLocked (and snapshot install), the log half to the three functions
// that hold a WAL mutex themselves, and a write section is opened by the one
// in write.go, the two paths that use its halves, and Reap.
var writeSectionCallers = map[string][]string{
	"putLocked":     {"applyLocked"},
	"deleteLocked":  {"applyLocked"},
	"replaceLocked": {"ApplyReplRecord"},
	"append":        {"write", "Txn", "rollForwardTxns"},
	"wlock":         {"write", "Txn", "ApplyReplRecord", "Reap"},
}

// strayWriteCalls lists every method call named in writeSectionCallers made
// from a function that is not one of its allowed callers.
func strayWriteCalls(fset *token.FileSet, f *ast.File) []string {
	var bad []string
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
			if allowed, ok := writeSectionCallers[m.Sel.Name]; ok && !slices.Contains(allowed, fn.Name.Name) {
				bad = append(bad, fset.Position(call.Pos()).String()+": "+fn.Name.Name+" calls "+m.Sel.Name)
			}
			return true
		})
	}
	return bad
}

// TestShardWriteLockOnlyThroughWlock keeps the bracketing rule structural:
// in the package's non-test files nothing but wlock/wunlock may write-lock
// a shard's lock field, so no mutation site can forget the sequence bump —
// and keeps the write section single: a shard's store is mutated, its log
// appended and its write section opened only from the functions
// writeSectionCallers names, so a second hand-written copy of the sequence
// fails here before it can diverge.
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
		for _, b := range strayWriteCalls(fset, f) {
			t.Errorf("%s outside the write section; hand the entries to write or applyLocked", b)
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
	// And the tenth copy: the same mutant reaches the store directly.
	if got := strayWriteCalls(fset, mutant); len(got) != 1 {
		t.Fatalf("checker found %d stray store calls in the mutant, want its putLocked: %v", len(got), got)
	}
}
