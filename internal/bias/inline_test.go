package bias

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
)

// TestProbeInlines pins that the publication sequence is call-free: probe and
// the mask it is handed must stay within the inlining budget, so both fast
// paths run the slot CAS and the recheck without a call. A call to a function
// that does not inline costs 57 of the budget's 80, so anything cold added to
// probe fails here; it belongs in settle.
func TestProbeInlines(t *testing.T) {
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
	for _, m := range regexp.MustCompile(`: can inline (\S+)`).FindAllSubmatch(out, -1) {
		fns[string(m[1])] = true
	}
	for _, fn := range []string{"(*Engine).probe", "sectorWant"} {
		if !fns[fn] {
			t.Errorf("%s is not inlinable: read go build -gcflags=-m=2 for its cost", fn)
		}
	}
}
