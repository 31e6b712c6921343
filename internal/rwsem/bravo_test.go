package rwsem

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bravolock/bravo/internal/bias"
	"github.com/bravolock/bravo/internal/lockcheck"
)

func newBravoPrivate() *Bravo {
	b := NewBravo(DefaultConfig())
	b.Engine().SetTable(bias.NewTable(bias.DefaultTableSize))
	return b
}

func TestBravoFastPathRoundTrip(t *testing.T) {
	b := newBravoPrivate()
	task := NewTask()
	// First read is slow and enables bias.
	b.DownRead(task)
	if task.r.Held() != 0 {
		t.Fatal("slow read recorded as fast")
	}
	b.UpRead(task)
	if !b.eng.Enabled() {
		t.Fatal("bias not enabled after slow read")
	}
	// Second read takes the fast path.
	b.DownRead(task)
	if task.r.Held() != 1 {
		t.Fatal("fast read not recorded on the task")
	}
	b.UpRead(task)
	if task.r.Held() != 0 {
		t.Fatal("fast record not consumed at release")
	}
}

func TestBravoWriterRevokes(t *testing.T) {
	b := newBravoPrivate()
	task := NewTask()
	b.DownRead(task)
	b.UpRead(task)
	w := NewTask()
	b.DownWrite(w)
	if b.eng.Enabled() {
		t.Fatal("bias survived DownWrite")
	}
	b.UpWrite(w)
}

func TestBravoRevocationWaitsForFastReader(t *testing.T) {
	b := newBravoPrivate()
	r := NewTask()
	b.DownRead(r)
	b.UpRead(r)
	b.DownRead(r) // fast read, still held
	var wGot atomic.Bool
	go func() {
		w := NewTask()
		b.DownWrite(w)
		wGot.Store(true)
		b.UpWrite(w)
	}()
	lockcheck.Never(t, wGot.Load, 50*time.Millisecond, "writer admitted during fast read")
	b.UpRead(r)
	lockcheck.Eventually(t, wGot.Load, "writer never admitted")
}

func TestBravoSameTaskMultipleSems(t *testing.T) {
	// One task holding several BRAVO semaphores at once (§3: supported).
	tab := bias.NewTable(bias.DefaultTableSize)
	task := NewTask()
	sems := make([]*Bravo, 4)
	for i := range sems {
		sems[i] = NewBravo(DefaultConfig())
		sems[i].Engine().SetTable(tab)
		sems[i].DownRead(task)
		sems[i].UpRead(task)
	}
	for _, s := range sems {
		s.DownRead(task)
	}
	if task.r.Held() == 0 {
		t.Fatal("no fast acquisitions recorded")
	}
	for _, s := range sems {
		s.UpRead(task)
	}
	if task.r.Held() != 0 {
		t.Fatal("held records leaked")
	}
	if tab.Occupancy() != 0 {
		t.Fatal("table left dirty")
	}
}

func TestBravoHeldOverflowDivertsToSlowPath(t *testing.T) {
	tab := bias.NewTable(bias.DefaultTableSize)
	task := NewTask()
	// Keep only semaphores whose (sem, task) home slots are distinct: two
	// that collide (one run in ~130 at this table size) send a read down the
	// slow path, pinning a handle entry Holds() does not count.
	sems := make([]*Bravo, 0, maxHeld+2)
	slots := map[uint32]bool{}
	for len(sems) < cap(sems) {
		s := NewBravo(DefaultConfig())
		slot := tab.Index(s.Engine().ID(), task.ID)
		if slots[slot] {
			continue
		}
		slots[slot] = true
		s.Engine().SetTable(tab)
		s.DownRead(task)
		s.UpRead(task)
		sems = append(sems, s)
	}
	for _, s := range sems {
		s.DownRead(task)
	}
	if task.r.Held() != maxHeld {
		t.Fatalf("held records = %d, want %d", task.r.Held(), maxHeld)
	}
	// The overflowed acquisitions went slow; all releases must still pair.
	for _, s := range sems {
		s.UpRead(task)
	}
	if task.r.Held() != 0 || tab.Occupancy() != 0 {
		t.Fatal("release pairing broken under overflow")
	}
}

func TestBravoStorm(t *testing.T) {
	b := newBravoPrivate()
	var state atomic.Int64
	var violations atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task := NewTask()
			for i := 0; i < 1200; i++ {
				b.DownRead(task)
				if state.Add(256)&0xff != 0 {
					violations.Add(1)
				}
				state.Add(-256)
				b.UpRead(task)
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task := NewTask()
			for i := 0; i < 600; i++ {
				b.DownWrite(task)
				if state.Add(1) != 1 {
					violations.Add(1)
				}
				state.Add(-1)
				b.UpWrite(task)
			}
		}()
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("exclusion violated %d times", v)
	}
}

func TestBravoInhibitAfterRevocation(t *testing.T) {
	b := newBravoPrivate()
	b.Engine().SetPolicy(bias.NewInhibitPolicy(1 << 40)) // effectively infinite inhibit
	task := NewTask()
	b.DownRead(task)
	b.UpRead(task)
	w := NewTask()
	b.DownWrite(w) // revokes; pushes inhibitUntil far out
	b.UpWrite(w)
	b.DownRead(task)
	b.UpRead(task)
	if b.eng.Enabled() {
		t.Fatal("bias re-enabled inside the inhibit window")
	}
}
