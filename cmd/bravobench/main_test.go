package main

import (
	"strings"
	"testing"
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
