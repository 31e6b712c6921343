//go:build unix

package kvs

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// childDir names the data directory of a child: this test binary re-run
// for one test, Putting childValue(k) for k = 0, 1, 2, … into a 4-shard
// SyncNone engine over it (walChild).
const childDir = "KVS_WAL_CHILD_DIR"

// childValue is key k's value in a child: EncodeValue(k) padded to 1 KiB,
// so every log crosses windows (walWindow) within a few thousand keys.
func childValue(k uint64) []byte { return append(EncodeValue(k), make([]byte, 1016)...) }

// walChild runs the child over dir: after each Put it calls ack, prints k
// if ack returns true and returns if not. It never Closes the engine.
func walChild(dir string, ack func(s *Sharded, k uint64) bool) {
	s, err := OpenSharded(dir, 4, mkStd, SyncNone)
	if err != nil {
		panic(err)
	}
	for k := uint64(0); ; k++ {
		s.Put(k, childValue(k))
		if !ack(s, k) {
			return
		}
		fmt.Println(k)
	}
}

// runChild runs t's child over a fresh directory and reopens what it left:
// every key the child printed must hold its value, and every recovered log
// must have crossed 2 windows, so reservations made from a non-zero log end
// held acknowledged records. It returns the child's stdout, the printed
// keys, the reopened engine and the child's exit error.
func runChild(t *testing.T) ([]byte, map[uint64]bool, *Sharded, error) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$")
	cmd.Env = append(os.Environ(), childDir+"="+dir)
	out, err := cmd.Output()
	acked := map[uint64]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		if k, err := strconv.ParseUint(line, 10, 64); err == nil {
			acked[k] = true
		}
	}
	t.Logf("child acknowledged %d keys", len(acked))
	r := openTestKV(t, dir, 4, SyncNone)
	t.Cleanup(func() { r.Close() })
	for k := range acked {
		if v, ok := r.Get(k); !ok || string(v) != string(childValue(k)) {
			t.Fatalf("acknowledged key %d = %x (present %v) after the child", k, v, ok)
		}
	}
	for i := range 4 {
		if end := walEnd(r, i); end <= 2<<20 {
			t.Fatalf("shard %d recovered a %d-byte log, which crossed fewer than 2 windows", i, end)
		}
	}
	return out, acked, r, err
}

// TestSyncNoneSurvivesKill holds SyncNone to its promise: a record is in
// the file when its write returns, so a process killed without Close loses
// at most the write in flight. The child starts its own SIGKILL once it has
// acknowledged killAfter keys, when every log has crossed 2 windows; the
// kill then lands at an arbitrary point of the stream.
func TestSyncNoneSurvivesKill(t *testing.T) {
	const killAfter = 10000
	t.Parallel()
	if dir := os.Getenv(childDir); dir != "" {
		self, _ := os.FindProcess(os.Getpid()) // never fails on unix
		walChild(dir, func(_ *Sharded, k uint64) bool {
			if k == killAfter {
				go self.Kill()
			}
			return true
		})
	}
	out, acked, r, err := runChild(t)
	if ee, _ := err.(*exec.ExitError); ee == nil || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("child ended with %v, want death by SIGKILL; output tail:\n%s", err, out[max(0, len(out)-200):])
	}
	if len(acked) < killAfter {
		t.Fatalf("child acknowledged %d keys before dying, want at least %d", len(acked), killAfter)
	}
	// The one write in flight may or may not have landed; nothing else can.
	inFlight := uint64(len(acked))
	for k := range r.Snapshot() {
		if !acked[k] && k != inFlight {
			t.Fatalf("recovered key %d, neither acknowledged nor the one in flight (%d)", k, inFlight)
		}
	}
}

// TestFullDiskIsAWALError holds a full disk to what README promises: the
// write that cannot reserve log blocks records a WAL error, and every write
// acknowledged before it survives. The child caps its own file size
// (RLIMIT_FSIZE; Go ignores SIGXFSZ, so the write fails with EFBIG) and
// prints each key Put while WALError is nil, then the error.
func TestFullDiskIsAWALError(t *testing.T) {
	t.Parallel()
	if dir := os.Getenv(childDir); dir != "" {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: 3 << 20, Max: 3 << 20}); err != nil {
			t.Fatal(err)
		}
		walChild(dir, func(s *Sharded, k uint64) bool {
			if err := s.WALError(); err != nil || k == 1<<16 {
				fmt.Println(err)
				return false
			}
			return true
		})
		return
	}
	out, acked, _, err := runChild(t)
	if err != nil || !strings.Contains(string(out), "file too large") {
		t.Fatalf("child ended with %v after %d keys, want a clean exit on a \"file too large\" WAL error; output tail:\n%s",
			err, len(acked), out[max(0, len(out)-200):])
	}
}
