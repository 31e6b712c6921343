package fairrw_test

import (
	"testing"

	"github.com/bravolock/bravo/internal/lockcheck"
)

// A small-scope exhaustive check of the ticket hand-off (ROADMAP item 6a):
// every interleaving of 2 readers and 2 writers, one acquisition each, one
// access to next/read/write per step in fairrw.go's order, the counters
// starting two short of wrapping. Asserted in every reachable state: a writer
// in its critical section is alone; tickets are admitted in the order issued;
// a state without a successor has every actor finished and next == read ==
// write (a waiter re-reading an unchanged counter is not a step, so a lost
// hand-off is a stuck state). The negative control is the order Unlock's
// comment rules out: write bumped before read.

// Program counters.
const (
	aTicket = iota // t = next.Add(1) - 1
	aWait          // reader: read == t?   writer: write == t?
	rAdmit         // read.Store(t + 1); reading from here
	rHeld          // write.Add(1)
	wHeld          // the critical section; Unlock begins: t = write.Load()
	wOpen          // read.Store(t + 1)   (mutant: write.Add(1))
	wLeave         // write.Add(1)        (mutant: read.Store(t + 1))
	aDone
)

type ticketState struct {
	next, read, write uint8
	pc, t             [4]uint8 // actors 0, 1 read; 2, 3 write
	admitted          uint8    // ghost: the ticket FIFO order admits next
}

// step advances actor a by one access; ok is false when it has none (done,
// or waiting on a counter that has not moved).
func (s ticketState) step(a int, mutant bool) (_ ticketState, ok bool, bad string) {
	pc, t, writer := &s.pc[a], &s.t[a], a >= 2
	gate := s.read
	if writer {
		gate = s.write
	}
	switch *pc {
	case aTicket:
		*t, *pc = s.next, aWait
		s.next++
	case aWait:
		if gate != *t {
			return s, false, ""
		}
		if *t != s.admitted {
			bad = "FIFO: a ticket was admitted out of order"
		}
		s.admitted++
		*pc = rAdmit
		if writer {
			*pc = wHeld
		}
	case rAdmit:
		s.read, *pc = *t+1, rHeld
	case rHeld:
		s.write++
		*pc = aDone
	case wHeld:
		*t, *pc = s.write, wOpen
	case wOpen, wLeave:
		if (*pc == wOpen) != mutant {
			s.read = *t + 1
		} else {
			s.write++
		}
		*pc++
	default:
		return s, false, ""
	}
	return s, true, bad
}

func exploreTickets(mutant bool) (bad map[string]bool, states int) {
	bad = map[string]bool{}
	init := ticketState{next: 254, read: 254, write: 254, admitted: 254}
	states = lockcheck.Explore(init, func(s ticketState, next func(ticketState)) {
		reading, writing := 0, 0
		for _, pc := range s.pc {
			switch pc {
			case rAdmit, rHeld:
				reading++
			case wHeld:
				writing++
			}
		}
		if writing > 1 || writing == 1 && reading > 0 {
			bad["exclusion: a writer shares its critical section"] = true
		}
		stuck := true
		for a := range s.pc {
			n, ok, b := s.step(a, mutant)
			if b != "" {
				bad[b] = true
			}
			if ok {
				stuck = false
				next(n)
			}
		}
		if stuck && (s.pc != [4]uint8{aDone, aDone, aDone, aDone} || s.read != s.next || s.write != s.next) {
			bad["progress: stuck with an actor waiting or a counter behind"] = true
		}
	})
	return bad, states
}

func TestTicketHandoffModel(t *testing.T) {
	for _, mutant := range []bool{false, true} {
		bad, states := exploreTickets(mutant)
		if mutant == (len(bad) == 0) {
			t.Errorf("mutant %v: %d states explored, violated: %v", mutant, states, bad)
		}
	}
}
