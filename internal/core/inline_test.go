package core

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
)

// canInline is the compiler's -m verdict for a function that fits the
// inlining budget.
var canInline = regexp.MustCompile(`: can inline (\S+)`)

// inlinable builds this package with -gcflags=-m and returns the functions
// the compiler reports it can inline. It skips when no go binary is found.
func inlinable(t *testing.T) map[string]bool {
	t.Helper()
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := exec.LookPath(gobin); err != nil {
		if gobin, err = exec.LookPath("go"); err != nil {
			t.Skip("no go binary to report inlining")
		}
	}
	out, err := exec.Command(gobin, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	fns := map[string]bool{}
	for _, m := range canInline.FindAllSubmatch(out, -1) {
		fns[string(m[1])] = true
	}
	return fns
}

// TestLockUnlockInlines pins that a write release is the substrate's unlock
// and nothing else: (*Lock).Unlock must stay within the inlining budget.
func TestLockUnlockInlines(t *testing.T) {
	if fns := inlinable(t); !fns["(*Lock).Unlock"] {
		t.Fatal("(*Lock).Unlock is not inlinable: something was added to the write release")
	}
}
