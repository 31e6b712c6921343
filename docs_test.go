package bravo_test

import (
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

	"github.com/bravolock/bravo"
	_ "github.com/bravolock/bravo/internal/locks/all"
	"github.com/bravolock/bravo/internal/rwl"
)

// TestDocsPointAtLiveFiles keeps the documents honest about the tree: every
// cmd/…, examples/…, internal/…, benchmark/… path and every root-level
// *.json / *.md name they mention must exist, and every `bravobench -flag`
// they show must be one cmd/bravobench defines, and none may cite
// `shardedkv` or `readlatency`, workloads of the -workload switch PR 18
// deleted (the instrument now is a BENCHMARK.json metric). CHANGES.md and
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
			if kb, _ := strconv.Atoi(q[1]); kb*1024 != bravo.DefaultTableSize*8 {
				t.Errorf("%s says %q; %d slots of 8 bytes are %dKB", doc, q[0], bravo.DefaultTableSize, bravo.DefaultTableSize*8/1024)
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
