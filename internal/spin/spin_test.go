package spin

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestUntilReturnsWhenConditionHolds(t *testing.T) {
	var flag atomic.Bool
	go func() {
		time.Sleep(10 * time.Millisecond)
		flag.Store(true)
	}()
	done := make(chan struct{})
	go func() {
		Until(flag.Load)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Until did not return after condition became true")
	}
}

func TestUntilImmediate(t *testing.T) {
	Until(func() bool { return true }) // must not block
}

func TestBackoffEscalates(t *testing.T) {
	// After enough iterations the backoff must sleep rather than burn CPU;
	// verify a long episode takes wall-clock time (i.e. naps happen).
	var b Backoff
	start := time.Now()
	for i := 0; i < yieldSpins+50; i++ {
		b.Once()
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("backoff never escalated to sleeping")
	}
}

func TestBackoffReset(t *testing.T) {
	var b Backoff
	for i := 0; i < yieldSpins+10; i++ {
		b.Once()
	}
	b.Reset()
	if b.i != 0 {
		t.Fatal("Reset did not rewind the progression")
	}
}

func TestManySpinnersMakeProgressOnOneP(t *testing.T) {
	// Liveness regression: spinners must not livelock the scheduler even
	// when they vastly outnumber Ps.
	var turn atomic.Int64
	const workers = 32
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(my int64) {
			Until(func() bool { return turn.Load() == my })
			turn.Add(1)
			done <- struct{}{}
		}(int64(w))
	}
	deadline := time.After(30 * time.Second)
	for i := 0; i < workers; i++ {
		select {
		case <-done:
		case <-deadline:
			t.Fatalf("only %d/%d spinners completed: livelock", i, workers)
		}
	}
}

func TestBeforeParkSpinsUntilTrySucceeds(t *testing.T) {
	defer func(p bool) { singleP = p }(singleP)
	singleP = false
	calls := 0
	if !BeforePark(func() bool { calls++; return calls == 3 }) {
		t.Fatal("BeforePark gave up before try succeeded")
	}
	if calls != 3 {
		t.Fatalf("try called %d times, want 3", calls)
	}
	calls = 0
	if BeforePark(func() bool { calls++; return false }) {
		t.Fatal("BeforePark reported success for a try that never succeeded")
	}
	if calls != parkSpins {
		t.Fatalf("try called %d times, want the whole budget (%d)", calls, parkSpins)
	}
}

func TestBeforeParkSkippedOnOneP(t *testing.T) {
	// With one P the holder cannot run while the waiter spins: park at once.
	defer func(p bool) { singleP = p }(singleP)
	singleP = true
	if BeforePark(func() bool { t.Error("try called on a single P"); return true }) {
		t.Fatal("BeforePark spun on a single P")
	}
}
