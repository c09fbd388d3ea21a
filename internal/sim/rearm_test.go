package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// rearmProgram runs one random program of arms, re-arms, cancels and
// sleeps over a handful of owners with one handle each, amid one-shot
// timers (some cancelled, enough of them to trigger compaction), and
// returns what fired, when, in order. With inPlace the owners re-arm
// through Rearm; without, through what Rearm is defined as.
func rearmProgram(seed int64, inPlace bool) []string {
	s := New(seed)
	defer s.Close()
	rng := rand.New(rand.NewSource(seed))
	type owner struct {
		id, arms int
		h        Timer
	}
	type armed struct {
		o   *owner
		arm int
	}
	var log []string
	var fire func(any)
	arm := func(o *owner, d time.Duration) {
		o.arms++
		arg := &armed{o, o.arms}
		if inPlace {
			s.Rearm(&o.h, d, fire, arg)
		} else {
			o.h.Cancel()
			o.h = s.AfterFuncArg(d, fire, arg)
		}
	}
	delay := func() time.Duration {
		if rng.Intn(5) == 0 {
			return time.Duration(rng.Intn(3)) // now, or nearly: ties on when
		}
		return time.Duration(rng.Intn(400)) * time.Microsecond
	}
	fire = func(arg any) {
		a := arg.(*armed)
		log = append(log, fmt.Sprintf("owner %d arm %d at %v", a.o.id, a.arm, s.Now()))
		if rng.Intn(3) == 0 {
			arm(a.o, delay()) // a retransmission timer re-arms itself
		}
	}
	owners := make([]*owner, 6)
	for i := range owners {
		owners[i] = &owner{id: i}
	}
	s.Go("program", func() {
		for step := 0; step < 3000; step++ {
			o := owners[rng.Intn(len(owners))]
			switch k := rng.Intn(20); {
			case k < 9:
				arm(o, delay())
			case k < 12:
				o.h.Cancel()
			case k < 15:
				step := step
				s.AfterFunc(delay(), func() { log = append(log, fmt.Sprintf("one-shot %d at %v", step, s.Now())) })
			case k < 16:
				for n := rng.Intn(3 * compactMinTimers); n > 0; n-- {
					s.AfterFunc(time.Hour, func() { log = append(log, "cancelled one-shot fired") }).Cancel()
				}
			default:
				s.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			}
		}
	})
	s.Run()
	return append(log, fmt.Sprintf("end at %v", s.Now()))
}

// TestRearmMatchesCancelAndAfterFunc: Rearm is Cancel followed by
// AfterFuncArg as far as anything can tell — the same callbacks fire with
// the same arguments at the same instants in the same order, and the run
// ends at the same time.
func TestRearmMatchesCancelAndAfterFunc(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		want, got := rearmProgram(seed, false), rearmProgram(seed, true)
		if len(want) < 500 {
			t.Fatalf("seed %d: only %d fires", seed, len(want))
		}
		if !slices.Equal(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("seed %d: fire %d: Rearm %q, Cancel+AfterFuncArg %q", seed, i, append(got, "(nothing)")[i], want[i])
				}
			}
			t.Fatalf("seed %d: Rearm fired %d more", seed, len(got)-len(want))
		}
	}
}

// TestRearmEdges walks one handle through every state Rearm can find it
// in: never armed, pending, re-armed to an earlier deadline (a fresh
// entry; the old one is cancelled), cancelled and not yet surfaced (the
// entry is revived in place), and stale after its fire.
func TestRearmEdges(t *testing.T) {
	s := New(1)
	var fired []string
	cb := func(arg any) { fired = append(fired, fmt.Sprintf("%v at %v", arg, s.Now())) }
	var h Timer
	s.Go("p", func() {
		s.Rearm(&h, 100*time.Microsecond, cb, "first") // zero handle: a plain arm
		s.Rearm(&h, 300*time.Microsecond, cb, "later") // in place
		if n := s.TimerHeapLen(); n != 1 {
			t.Errorf("heap has %d entries after a re-arm in place, want 1", n)
		}
		s.Rearm(&h, 50*time.Microsecond, cb, "earlier") // before the queued entry: fresh push
		if n := s.TimerHeapLen(); n != 2 {
			t.Errorf("heap has %d entries after a re-arm to an earlier deadline, want 2", n)
		}
		s.Sleep(60 * time.Microsecond) // "earlier" fires at 50µs
		if h.Cancel() {
			t.Error("handle still live after its timer fired")
		}
		s.Rearm(&h, 40*time.Microsecond, cb, "after fire") // stale handle: a plain arm, at 100µs
		if !h.Cancel() {
			t.Error("Cancel of a pending re-armed timer reported false")
		}
		s.Rearm(&h, 70*time.Microsecond, cb, "revived") // cancelled, not surfaced: in place, at 130µs
		if n := s.TimerHeapLen(); n != 2 {              // the dead "later" entry, queued at 100µs, and this one
			t.Errorf("heap has %d entries after reviving a cancelled entry, want 2", n)
		}
		s.Sleep(time.Millisecond)
		if h.Cancel() {
			t.Error("handle still live at the end")
		}
	})
	s.Run()
	want := []string{"earlier at 50µs", "revived at 130µs"}
	if !slices.Equal(fired, want) {
		t.Fatalf("fired %q, want %q", fired, want)
	}
	if s.Now() != 60*time.Microsecond+time.Millisecond {
		t.Fatalf("run ended at %v: the clock followed a dead entry", s.Now())
	}
}

// TestRearmHeavyHeapBounded is TestCancelHeavyHeapBounded for owners
// that re-arm one handle each — a retransmission timer pushed back by
// every ACK: the heap holds one entry an owner, however often they
// re-arm and however far the clock has moved past the queued keys, and
// nothing is left for compaction to collect.
func TestRearmHeavyHeapBounded(t *testing.T) {
	s := New(1)
	const owners = 16
	var h [owners]Timer
	noFire := func(any) { t.Error("a timer that was always pushed back fired") }
	s.Go("rearm", func() {
		for i := 0; i < 100_000; i++ {
			s.Rearm(&h[i%owners], time.Millisecond, noFire, nil)
			if i%7 == 0 {
				h[(i/7)%owners].Cancel() // nothing unacked: the next ACK re-arms
			}
			if hl := s.TimerHeapLen(); hl > owners {
				t.Fatalf("timer heap grew to %d entries for %d owners", hl, owners)
			}
			if i%64 == 0 {
				s.Sleep(10 * time.Microsecond)
			}
		}
		for i := range h {
			h[i].Cancel()
		}
	})
	s.Run()
	if s.cancelledTimers != 0 || s.TimerHeapLen() != 0 {
		t.Fatalf("after the run: %d cancelled entries counted, %d in the heap", s.cancelledTimers, s.TimerHeapLen())
	}
}

// TestCloseWithRearmedEntriesQueued: entries queued under a deadline
// their timer has moved on from stay put below a live top, are dropped or
// moved when they surface, and go at Close like any other.
func TestCloseWithRearmedEntriesQueued(t *testing.T) {
	s := New(1)
	var h [4]Timer
	fired := 0
	cb := func(any) { fired++ }
	s.Go("p", func() {
		for round := 1; round <= 3; round++ {
			for i := range h {
				s.Rearm(&h[i], time.Duration(round)*time.Millisecond, cb, nil)
			}
			s.Sleep(100 * time.Microsecond)
		}
		h[0].Cancel()
		s.Sleep(time.Hour)
	})
	s.RunFor(250 * time.Microsecond) // the proc's sleep is on top; below it four entries queued at 1ms, due at 3.2ms
	if fired != 0 || s.TimerHeapLen() != len(h)+1 {
		t.Fatalf("at 250µs: %d fired, %d entries", fired, s.TimerHeapLen())
	}
	s.RunFor(2 * time.Millisecond) // they surface: the cancelled one is dropped, three move to 3.2ms
	if fired != 0 || s.TimerHeapLen() != len(h) || s.Now() != 2250*time.Microsecond {
		t.Fatalf("at %v: %d fired, %d entries", s.Now(), fired, s.TimerHeapLen())
	}
	s.Rearm(&h[1], 5*time.Millisecond, cb, nil) // queued at 3.2ms, due at 7.25ms
	s.Close()
	if s.TimerHeapLen() != 0 || fired != 0 {
		t.Fatalf("after Close: %d entries, %d fired", s.TimerHeapLen(), fired)
	}
}

// TestCancelledTimerDoesNotAdvanceClock: a run ends at its last event,
// not at the deadline of a timer that was cancelled.
func TestCancelledTimerDoesNotAdvanceClock(t *testing.T) {
	s := New(1)
	s.AfterFunc(time.Microsecond, func() {})
	s.AfterFunc(time.Hour, func() { t.Error("cancelled timer fired") }).Cancel()
	s.Run()
	if s.Now() != time.Microsecond {
		t.Fatalf("Run ended at %v, want 1µs", s.Now())
	}
}
