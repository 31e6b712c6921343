package rwsem

import (
	"testing"

	"github.com/bravolock/bravo/internal/bias"
)

// Tests for the capabilities rwsem gained by moving onto the shared
// internal/bias engine: deterministic collision behavior, policies, stats,
// and unbalanced-release detection.

// collidingTasks returns two tasks whose (task, sem) pairs hash to the same
// slot of tab.
func collidingTasks(t *testing.T, tab *bias.Table, b *Bravo) (*Task, *Task) {
	t.Helper()
	semID := b.Engine().ID()
	t1 := NewTaskWithID(1)
	home := tab.Index(semID, t1.ID)
	for c := uint64(2); c < 1<<20; c++ {
		if tab.Index(semID, c) == home {
			return t1, NewTaskWithID(c)
		}
	}
	t.Fatal("no colliding task identity found")
	return nil, nil
}

func TestBravoTwoTasksOneSlotDiverts(t *testing.T) {
	tab := bias.NewTable(64)
	st := &bias.Stats{}
	b := NewBravo(DefaultConfig())
	b.Engine().SetTable(tab)
	b.Engine().SetPolicy(bias.AlwaysPolicy{})
	b.Engine().SetStats(st)
	t1, t2 := collidingTasks(t, tab, b)
	b.DownRead(t1) // slow, enables bias
	b.UpRead(t1)
	b.DownRead(t1) // fast: occupies the shared slot
	if t1.r.Held() != 1 {
		t.Fatal("first task not on the fast path")
	}
	b.DownRead(t2) // same slot: must divert to the slow path
	if t2.r.Held() != 0 {
		t.Fatal("colliding task took the fast path")
	}
	if st.SlowCollision.Load() != 1 {
		t.Fatalf("collision not recorded: %s", st.Snapshot())
	}
	b.UpRead(t2)
	b.UpRead(t1)
	if tab.Occupancy() != 0 {
		t.Fatal("table dirty after collision round trip")
	}
}

func TestBravoSlotCacheAvoidsRehash(t *testing.T) {
	tab := bias.NewTable(bias.DefaultTableSize)
	b := NewBravo(DefaultConfig())
	b.Engine().SetTable(tab)
	b.Engine().SetPolicy(bias.AlwaysPolicy{})
	task := NewTask()
	b.DownRead(task)
	b.UpRead(task)
	home := tab.Index(b.Engine().ID(), task.ID)
	for i := 0; i < 50; i++ {
		b.DownRead(task)
		if slot, ok := task.r.CachedSlot(b.Engine()); !ok || slot != home {
			t.Fatalf("iteration %d: cache entry slot=%d ok=%v, want home %d", i, slot, ok, home)
		}
		b.UpRead(task)
	}
}

func TestBravoStatsCountPaths(t *testing.T) {
	st := &bias.Stats{}
	b := NewBravo(DefaultConfig())
	b.Engine().SetTable(bias.NewTable(bias.DefaultTableSize))
	b.Engine().SetPolicy(bias.AlwaysPolicy{})
	b.Engine().SetStats(st)
	task := NewTask()
	b.DownRead(task) // slow: bias disabled
	b.UpRead(task)
	for i := 0; i < 10; i++ {
		b.DownRead(task)
		b.UpRead(task)
	}
	w := NewTask()
	b.DownWrite(w) // revocation
	b.UpWrite(w)
	snap := st.Snapshot()
	if snap.SlowDisabled != 1 || snap.FastRead != 10 || snap.WriteRevoke != 1 {
		t.Fatalf("rwsem stats wrong: %s", snap)
	}
}

func TestBravoCustomPolicyHonored(t *testing.T) {
	b := NewBravo(DefaultConfig())
	b.Engine().SetTable(bias.NewTable(64))
	b.Engine().SetPolicy(bias.NeverPolicy{})
	task := NewTask()
	for i := 0; i < 20; i++ {
		b.DownRead(task)
		b.UpRead(task)
	}
	if b.eng.Enabled() {
		t.Fatal("NeverPolicy rwsem enabled bias")
	}
}

// TestBravoRecoversAfterTransientCollision: a task whose home slot another
// lock held for one DownRead is back on the fast path as soon as the slot is
// free, with no write (and so no bias flip) in between.
func TestBravoRecoversAfterTransientCollision(t *testing.T) {
	tab := bias.NewTable(64)
	b := NewBravo(DefaultConfig())
	b.Engine().SetTable(tab)
	b.Engine().SetPolicy(bias.AlwaysPolicy{})
	task := NewTask()
	b.DownRead(task) // slow, enables bias
	b.UpRead(task)
	home := tab.Index(b.Engine().ID(), task.ID)
	if _, ok := tab.TryPublishAt(home, uintptr(0xF00D0)); !ok {
		t.Fatal("setup publish failed")
	}
	b.DownRead(task)
	if task.r.Held() != 0 {
		t.Fatal("task took the fast path through an occupied home slot")
	}
	b.UpRead(task)
	tab.Clear(home)
	b.DownRead(task)
	if task.r.Held() != 1 {
		t.Fatal("task still diverted after its home slot emptied")
	}
	b.UpRead(task)
}

func TestBravoUnbalancedUpReadPanics(t *testing.T) {
	b := NewBravo(DefaultConfig())
	b.Engine().SetTable(bias.NewTable(64))
	task := NewTask()
	b.DownRead(task)
	b.UpRead(task)
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced UpRead did not panic")
		}
	}()
	b.UpRead(task)
}
