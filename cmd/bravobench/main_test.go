package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/bravolock/bravo/internal/bench"
	"github.com/bravolock/bravo/internal/sim"
)

func TestCheckLocksRejectsUnknownNames(t *testing.T) {
	if err := checkLocks([]string{"go-rw", "bravo-go"}); err != nil {
		t.Fatalf("registered lineup refused: %v", err)
	}
	// A name the registry does not have fails before anything runs, not
	// with a panic halfway through the lineup.
	err := checkLocks([]string{"bravo-ba", "bravo-pf-t"})
	if err == nil || !strings.Contains(err.Error(), `unknown lock "bravo-pf-t"`) || !strings.Contains(err.Error(), "bravo-ba") {
		t.Fatalf("checkLocks(bravo-ba, bravo-pf-t) = %v, want rwl's unknown-lock message listing the known locks", err)
	}
}

func TestSelectFiguresRejectsBeforeRunning(t *testing.T) {
	// An unknown ID anywhere in the list, and a native-only table in sim
	// mode, fail the whole selection: nothing before them runs.
	for _, c := range []struct{ spec, mode string }{{"7,10", "sim"}, {"t1", "sim"}} {
		figs, err := selectFigures(c.spec, c.mode)
		if err == nil || figs != nil {
			t.Fatalf("selectFigures(%q, %s) = %d figures, %v; want an error", c.spec, c.mode, len(figs), err)
		}
		if !strings.Contains(err.Error(), "valid: 1, 2, 3, 4a,") || !strings.Contains(err.Error(), "9d, or all") {
			t.Fatalf("selectFigures(%q, %s) error %q does not name the valid IDs", c.spec, c.mode, err)
		}
	}
	if _, err := selectFigures("t1,t2", "native"); err != nil {
		t.Fatalf("tables refused in native mode: %v", err)
	}
	var ids []string
	figs, err := selectFigures("4,9a,all", "sim")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range figs {
		ids = append(ids, f.id)
	}
	if got := strings.Join(ids, " "); !strings.HasPrefix(got, "4a 4b 4c 4d 4e 4f 9a 1 2 3 4a") || !strings.HasSuffix(got, "8b 9a 9b 9c 9d") {
		t.Fatalf("-fig 4,9a,all in sim mode selects %s", got)
	}
}

func TestSimFigurePrintsTheSimulatorSeries(t *testing.T) {
	figs, err := selectFigures("8b", "sim")
	if err != nil || len(figs) != 1 {
		t.Fatalf("selectFigures(8b) = %d figures, %v", len(figs), err)
	}
	var got, want bytes.Buffer
	figs[0].draw(&got, false, bench.Config{Threads: []int{1, 2}}, nil)
	bench.WriteSeries(&want, "Figure 8b: locktorture reads, 0 writers, 5µs read CS (sim, X5-4)", "threads", "ops/30s",
		sim.Figure8Locktorture([]int{1, 2}, 5000))
	if got.String() != want.String() {
		t.Fatalf("-fig 8b -threads 1,2 printed\n%s\nwant\n%s", got.String(), want.String())
	}
}
