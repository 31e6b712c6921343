package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain runs the command itself when the test binary is re-executed
// with KVSERV_TEST_MAIN set, so a test can drive kvserv's flag handling
// and exit status as a process.
func TestMain(m *testing.M) {
	if os.Getenv("KVSERV_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadSyncPolicyExits wants an unknown -sync refused even without
// -data-dir, where no log would use it: exit status 1 and the policy named,
// before anything listens. A kvserv that starts serving instead is killed
// at the deadline and fails the test.
func TestBadSyncPolicyExits(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-sync", "bogus", "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "KVSERV_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("kvserv -sync bogus: %v, want exit status 1; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), `"bogus"`) {
		t.Fatalf("kvserv -sync bogus printed %q, want the policy named", out)
	}
}
