package bravo_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/bravolock/bravo/internal/bias"
	_ "github.com/bravolock/bravo/internal/locks/all"
	"github.com/bravolock/bravo/internal/rwl"
)

// TestDocsPointAtLiveFiles keeps the documents honest about the tree: every
// cmd/…, examples/…, internal/…, benchmark/… path and every root-level
// *.json / *.md name they mention must exist, and every `bravobench -flag`
// they show must be one cmd/bravobench defines, and none may cite
// `shardedkv` or `readlatency`, workloads of the -workload switch PR 18
// deleted (the instrument now is a BENCHMARK.json metric). Every Example…
// function doc.go lists must be one example_test.go defines. CHANGES.md and
// ROADMAP.md are history and exempt.
func TestDocsPointAtLiveFiles(t *testing.T) {
	pathRE := regexp.MustCompile(`\b(?:cmd|examples|internal|benchmark)/[\w./-]*`)
	rootFileRE := regexp.MustCompile(`(^|[^\w/.*-])([\w-]+\.(?:json|md))\b`)
	flagUseRE := regexp.MustCompile("bravobench((?:\\s+-[a-z]+(?:\\s+[^-\\s`][^\\s`]*)?)+)")
	flagRE := regexp.MustCompile(`\s-([a-z]+)`)
	deadWorkloadRE := regexp.MustCompile(`\b(?:shardedkv|readlatency)\b`)

	main, err := os.ReadFile("cmd/bravobench/main.go")
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	for _, m := range regexp.MustCompile(`flag\.\w+\("([a-z]+)"`).FindAllStringSubmatch(string(main), -1) {
		defined[m[1]] = true
	}

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		exists := func(kind, path string) {
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s mentions %s %q, which is not in the tree", doc, kind, path)
			}
		}
		for _, p := range pathRE.FindAllString(text, -1) {
			exists("path", strings.TrimRight(p, "./"))
		}
		for _, m := range rootFileRE.FindAllStringSubmatch(text, -1) {
			exists("root file", m[2])
		}
		for _, w := range deadWorkloadRE.FindAllString(text, -1) {
			t.Errorf("%s cites the %q workload, which no longer exists; name a BENCHMARK.json metric", doc, w)
		}
		for _, use := range flagUseRE.FindAllStringSubmatch(text, -1) {
			for _, f := range flagRE.FindAllStringSubmatch(use[1], -1) {
				if !defined[f[1]] {
					t.Errorf("%s shows `bravobench -%s`, which cmd/bravobench does not define", doc, f[1])
				}
			}
		}
	}

	docGo, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	examples, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range regexp.MustCompile(`\bExample\w+`).FindAllString(string(docGo), -1) {
		if !regexp.MustCompile(`(?m)^func ` + name + `\(`).Match(examples) {
			t.Errorf("doc.go lists %s, which example_test.go does not define", name)
		}
	}
}

// TestDocsQuoteTheTableFootprint: README.md and DESIGN.md each state the
// shared visible-readers table's size, and the size they state is one 8-byte
// word per slot of the default table.
func TestDocsQuoteTheTableFootprint(t *testing.T) {
	quoteRE := regexp.MustCompile(`(\d+) ?KB\s+visible-readers\s+table`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		quotes := quoteRE.FindAllStringSubmatch(string(raw), -1)
		if len(quotes) == 0 {
			t.Errorf("%s does not state the visible-readers table's footprint", doc)
		}
		for _, q := range quotes {
			if kb, _ := strconv.Atoi(q[1]); kb*1024 != bias.DefaultTableSize*8 {
				t.Errorf("%s says %q; %d slots of 8 bytes are %dKB", doc, q[0], bias.DefaultTableSize, bias.DefaultTableSize*8/1024)
			}
		}
	}
}

// TestReadmeLockMenuIsTheRegistry: the README's "Lock registry menu" table
// names exactly the locks internal/locks/all registers.
func TestReadmeLockMenuIsTheRegistry(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, menu, _ := strings.Cut(string(raw), "## Lock registry menu")
	menu, _, _ = strings.Cut(menu, "\n## ")
	var got []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z0-9-]+)` \\|").FindAllStringSubmatch(menu, -1) {
		got = append(got, m[1])
	}
	want := slices.Clone(rwl.Names())
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("README menu = %v\nregistry    = %v", got, want)
	}
}

// TestEveryInternalPackageHasAnImporter is the first slice of an enforced
// code budget: an internal/… package that no non-test file outside its own
// directory imports — here or in the benchmark/ module — is dead code the
// compiler cannot see, and fails. internal/lockcheck, a helper package only
// tests import, is the one exemption.
func TestEveryInternalPackageHasAnImporter(t *testing.T) {
	const module = "github.com/bravolock/bravo/"
	packages := map[string]bool{} // internal/… directories holding non-test Go
	imported := map[string]bool{} // those some file elsewhere imports
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, the benchmark's .bench_build
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			packages[dir] = true
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(p, module) && p[len(module):] != dir {
				imported[p[len(module):]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(packages) < 20 {
		t.Fatalf("found %d internal packages; the walk is not looking at the module", len(packages))
	}
	for dir := range packages {
		if !imported[dir] && dir != "internal/lockcheck" {
			t.Errorf("%s: no non-test file outside it imports it; delete it or use it", dir)
		}
	}
}

// TestEveryExportedFuncIsReferenced is the second slice of the code budget,
// at function granularity: every exported func or method declared in
// non-test Go under internal/ must be named by some identifier anywhere in
// the tree — a call, a method value or an interface method, in code or tests,
// here or in the benchmark/ module — other than a func declaration's own
// name. One nothing names is dead code the compiler cannot see: delete it.
// The one exemption is the methods container/heap and sort call through
// their interfaces (Len, Less, Swap, Push, Pop) on a type declaring Len, Less
// and Swap.
func TestEveryExportedFuncIsReferenced(t *testing.T) {
	type decl struct {
		pos  token.Position
		name string
		typ  string // the receiver's "dir.Type", empty for a func
	}
	var decls []decl
	named := map[string]bool{}              // every identifier but a func declaration's name
	methods := map[string]map[string]bool{} // "dir.Type" → the methods it declares
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, the benchmark's .bench_build
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		own := map[*ast.Ident]bool{}
		for _, dl := range f.Decls {
			fd, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fd.Name] = true
			typ := ""
			if fd.Recv != nil {
				rt := fd.Recv.List[0].Type
				if star, ok := rt.(*ast.StarExpr); ok {
					rt = star.X
				}
				switch x := rt.(type) {
				case *ast.IndexExpr:
					rt = x.X
				case *ast.IndexListExpr:
					rt = x.X
				}
				typ = dir + "." + rt.(*ast.Ident).Name
				if methods[typ] == nil {
					methods[typ] = map[string]bool{}
				}
				methods[typ][fd.Name.Name] = true
			}
			if fd.Name.IsExported() && strings.HasPrefix(dir, "internal/") && !strings.HasSuffix(path, "_test.go") {
				decls = append(decls, decl{fset.Position(fd.Pos()), fd.Name.Name, typ})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				named[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) < 300 {
		t.Fatalf("found %d exported funcs under internal/; the walk is not looking at the module", len(decls))
	}
	for _, d := range decls {
		m := methods[d.typ]
		if named[d.name] || m["Len"] && m["Less"] && m["Swap"] && slices.Contains([]string{"Len", "Less", "Swap", "Push", "Pop"}, d.name) {
			continue
		}
		if d.typ != "" {
			t.Errorf("%s: method %s.%s is named nowhere else in the tree; delete it or use it", d.pos, d.typ[strings.LastIndex(d.typ, "/")+1:], d.name)
		} else {
			t.Errorf("%s: func %s is named nowhere else in the tree; delete it or use it", d.pos, d.name)
		}
	}
}

// lineCeilings is ROADMAP item 8's line budget: the most non-test Go lines
// each top-level package — the root, each cmd/*, examples/* and internal/*
// directory with everything below it — and the whole module outside
// benchmark/ may hold, set at the current counts. Lower an entry when a
// change deletes code, and raise one only in the diff that needs it. Only
// .go files count: assembly (internal/locks/seq/store_amd64.s,
// internal/locks/seq/load_amd64.s, internal/arch/prefetch_amd64.s,
// internal/bias/scan_amd64.s) does not.
var lineCeilings = map[string]int{
	".":                   301,
	"cmd/bravobench":      289,
	"cmd/kvserv":          247,
	"examples/kvcache":    109,
	"examples/locktable":  116,
	"examples/quickstart": 63,
	"examples/vmsim":      78,
	"internal/arch":       47,
	"internal/bench":      569,
	"internal/bias":       1372,
	"internal/cliutil":    36,
	"internal/clock":      19,
	"internal/cluster":    1031,
	"internal/core":       177,
	"internal/frame":      207,
	"internal/hash":       78,
	"internal/kvs":        3639,
	"internal/kvserv":     1723,
	"internal/lockcheck":  405,
	"internal/locks":      920,
	"internal/metis":      319,
	"internal/repl":       611,
	"internal/rwl":        136,
	"internal/rwsem":      425,
	"internal/self":       52,
	"internal/sim":        1119,
	"internal/spin":       106,
	"internal/topo":       64,
	"internal/vm":         171,
	"internal/wire":       959,
	"internal/xrand":      119,
	"total":               15507,
}

// testLineCeilings caps a package's test Go the same way, where a change
// folded its suites together: internal/kvs's randomized suites share one op
// generator and one model (internal/kvs/harness_test.go), internal/kvserv's
// end-to-end suites one op table and one model (internal/kvserv/
// harness_test.go), and a private op loop or state comparer growing back
// shows here.
var testLineCeilings = map[string]int{"internal/kvs": 6745, "internal/kvserv": 2442}

// TestLineBudget counts the non-test Go lines of every top-level package
// (benchmark/, its own module, excluded) and fails naming the package, its
// count and its ceiling when one — or the total — exceeds lineCeilings, or
// when a package has no ceiling at all; and the same for test Go against
// testLineCeilings.
func TestLineBudget(t *testing.T) {
	counts, testCounts := map[string]int{}, map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "."
		if parts := strings.Split(filepath.ToSlash(filepath.Dir(path)), "/"); parts[0] != "." {
			pkg = parts[0]
			if len(parts) > 1 {
				pkg += "/" + parts[1]
			}
		}
		n := strings.Count(string(raw), "\n")
		if strings.HasSuffix(path, "_test.go") {
			testCounts[pkg] += n
			return nil
		}
		counts[pkg] += n
		counts["total"] += n
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg, n := range counts {
		switch ceiling, ok := lineCeilings[pkg]; {
		case !ok:
			t.Errorf("%s: %d non-test Go lines and no ceiling in lineCeilings", pkg, n)
		case n > ceiling:
			t.Errorf("%s: %d non-test Go lines, over its ceiling of %d", pkg, n, ceiling)
		}
	}
	for pkg := range lineCeilings {
		if counts[pkg] == 0 {
			t.Errorf("lineCeilings names %s, which has no non-test Go; delete the entry", pkg)
		}
	}
	for pkg, ceiling := range testLineCeilings {
		if n := testCounts[pkg]; n > ceiling {
			t.Errorf("%s: %d test Go lines, over its ceiling of %d", pkg, n, ceiling)
		}
	}
}
