package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// laneProgram runs one random program over a few lanes — some with a
// fixed delay (a retransmission timer), some with arbitrary
// non-decreasing deadlines (a port's deliveries) — amid one-shot
// AfterFunc and AfterFuncArg timers, re-armed handles, cancels of both
// kinds, bursts of cancelled timers that trigger compaction, and ties on
// one instant; callbacks arm more entries. It returns what fired, when,
// in order, and what every cancel reported. With onLanes the lane
// entries ride their lanes; without, each is its own AfterFuncArg timer,
// re-armed as Cancel then AfterFuncArg: the reference a lane must match.
func laneProgram(seed int64, steps int, onLanes bool) []string {
	s := New(seed)
	defer s.Close()
	rng := rand.New(rand.NewSource(seed))
	type entry struct {
		lt  LaneTimer // on a lane
		ref Timer     // its own timer
	}
	type lane struct {
		id    int
		fixed time.Duration // the delay of a fixed-delay lane; 0 = free
		last  time.Duration
		l     Lane
		slots []*entry // owners that re-arm and cancel one entry each
	}
	var log []string
	logf := func(format string, a ...any) { log = append(log, fmt.Sprintf(format, a...)) }
	var fire func(any)
	var lanes []*lane
	arms := 0
	// armOn arms e (a fresh entry, or an owner's) on ln.
	armOn := func(ln *lane, e *entry) {
		d := ln.fixed
		if ln.fixed == 0 {
			at := max(ln.last, s.Now())
			if rng.Intn(3) > 0 {
				at += time.Duration(rng.Intn(4)) * time.Nanosecond
			}
			d = at - s.Now()
		}
		ln.last = s.Now() + d
		arms++
		arg := fmt.Sprintf("lane %d arm %d", ln.id, arms)
		if onLanes {
			ln.l.Arm(&e.lt, d, arg)
		} else {
			e.ref.Cancel()
			e.ref = s.AfterFuncArg(d, fire, arg)
		}
	}
	cancel := func(e *entry) bool {
		if onLanes {
			return e.lt.Cancel()
		}
		return e.ref.Cancel()
	}
	for i := 1 + rng.Intn(4); i > 0; i-- {
		ln := &lane{id: len(lanes)}
		if rng.Intn(2) == 0 {
			ln.fixed = []time.Duration{1, 3, 10 * time.Microsecond}[rng.Intn(3)]
		}
		ln.l.Init(s, func(arg any) { fire(arg) })
		for j := 1 + rng.Intn(6); j > 0; j-- {
			ln.slots = append(ln.slots, &entry{})
		}
		lanes = append(lanes, ln)
	}
	owners := make([]Timer, 4)
	delay := func() time.Duration {
		if rng.Intn(3) == 0 {
			return time.Duration(rng.Intn(4)) // ties with the lanes' deadlines
		}
		return time.Duration(rng.Intn(20)) * time.Microsecond
	}
	// op does one random thing; the program proc and callbacks share it.
	var op func(step int)
	op = func(step int) {
		ln := lanes[rng.Intn(len(lanes))]
		switch k := rng.Intn(20); {
		case k < 5:
			armOn(ln, &entry{}) // a frame: armed once, never cancelled
		case k < 9:
			armOn(ln, ln.slots[rng.Intn(len(ln.slots))]) // arm or re-arm an owner
		case k < 11:
			logf("cancel lane %d: %v", ln.id, cancel(ln.slots[rng.Intn(len(ln.slots))]))
		case k < 13:
			s.AfterFunc(delay(), func() { logf("one-shot %d at %v", step, s.Now()) })
		case k < 14:
			s.AfterFuncArg(delay(), fire, fmt.Sprintf("arg %d", step))
		case k < 16:
			o := &owners[rng.Intn(len(owners))]
			o.Cancel()
			*o = s.AfterFuncArg(delay(), fire, fmt.Sprintf("re-arm %d", step))
		case k < 17:
			logf("cancel owner: %v", owners[rng.Intn(len(owners))].Cancel())
		case k < 18:
			for n := rng.Intn(3 * compactMinTimers); n > 0; n-- {
				s.AfterFunc(time.Hour, func() { logf("cancelled one-shot fired") }).Cancel()
			}
		default:
			for _, e := range ln.slots { // every owner of a lane stops at once
				cancel(e)
			}
		}
	}
	fired := 0
	fire = func(arg any) {
		logf("%s at %v", arg, s.Now())
		if fired++; fired < 4*steps && rng.Intn(2) == 0 {
			op(-fired)
		}
	}
	s.Go("program", func() {
		for step := 0; step < steps; step++ {
			if rng.Intn(8) == 0 {
				s.Sleep(time.Duration(rng.Intn(5)) * time.Microsecond)
			}
			op(step)
		}
	})
	s.Run()
	return append(log, fmt.Sprintf("end at %v", s.Now()))
}

// TestLaneFiresAsOwnTimers is the lane's defining property: entries that
// ride lanes fire in exactly the order, and at exactly the instants, that
// one AfterFuncArg timer each would, cancels report the same, and the
// clock ends where it would.
func TestLaneFiresAsOwnTimers(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		got, want := laneProgram(seed, 400, true), laneProgram(seed, 400, false)
		if !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d: first difference at event %d of %d/%d:\n lanes: %v\n  own:  %v",
				seed, i, len(got), len(want), eventAt(got, i), eventAt(want, i))
		}
	}
}

func eventAt(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "<end>"
}

// FuzzLaneOrder searches for a program whose lanes fire out of the order
// one timer per entry would give.
func FuzzLaneOrder(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint16(200))
	}
	f.Fuzz(func(t *testing.T, seed int64, steps uint16) {
		n := int(steps % 600)
		if got, want := laneProgram(seed, n, true), laneProgram(seed, n, false); !slices.Equal(got, want) {
			t.Fatalf("seed %d, %d steps: lanes and own timers disagree", seed, n)
		}
	})
}

// TestLaneTakesOneHeapSlot: however many entries a lane holds, it is one
// heap entry; it leaves the heap when its last entry fires.
func TestLaneTakesOneHeapSlot(t *testing.T) {
	s := New(1)
	defer s.Close()
	fired := 0
	var l Lane
	l.Init(s, func(any) { fired++ })
	entries := make([]LaneTimer, 100)
	for i := range entries {
		l.Arm(&entries[i], time.Duration(i)*time.Microsecond, nil)
	}
	if n := s.TimerHeapLen(); n != 1 {
		t.Fatalf("heap holds %d entries for one lane of 100, want 1", n)
	}
	for i := 0; i < 50; i++ {
		entries[2*i+1].Cancel()
	}
	s.RunFor(time.Hour)
	if fired != 50 || s.TimerHeapLen() != 0 {
		t.Fatalf("fired %d of 50 entries, heap holds %d after the run", fired, s.TimerHeapLen())
	}
}

// TestLaneRefusesAnEarlierDeadline: an arm before the lane's last arm
// panics rather than fire out of order.
func TestLaneRefusesAnEarlierDeadline(t *testing.T) {
	s := New(1)
	defer s.Close()
	var l Lane
	l.Init(s, func(any) {})
	var a, b LaneTimer
	l.Arm(&a, 2*time.Microsecond, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("an arm before the lane's last arm did not panic")
		}
	}()
	l.Arm(&b, time.Microsecond, nil)
}

// TestCloseWithStaleLaneSlotQueued: a lane slot queued under a key its
// head has moved on from stays put below a live top, moves to the new
// head's key when it surfaces, and goes at Close like any other entry.
func TestCloseWithStaleLaneSlotQueued(t *testing.T) {
	s := New(1)
	fired := 0
	var l Lane
	l.Init(s, func(any) { fired++ })
	var e [4]LaneTimer
	s.Go("p", func() {
		for i := range e {
			l.Arm(&e[i], time.Duration(i+1)*time.Millisecond, nil)
		}
		e[0].Cancel() // the head moves on to 2ms; the slot stays queued at 1ms
		e[1].Cancel() // and on to 3ms
		s.Sleep(100 * time.Microsecond)
		s.Sleep(time.Hour)
	})
	s.RunFor(250 * time.Microsecond) // the proc's sleep is on top; below it the slot, queued at 1ms
	if fired != 0 || s.TimerHeapLen() != 2 {
		t.Fatalf("at 250µs: %d fired, %d entries", fired, s.TimerHeapLen())
	}
	s.RunFor(2 * time.Millisecond) // the slot surfaces at 1ms and moves to 3ms
	if fired != 0 || s.TimerHeapLen() != 2 || s.Now() != 2250*time.Microsecond {
		t.Fatalf("at %v: %d fired, %d entries", s.Now(), fired, s.TimerHeapLen())
	}
	if top := s.timers[0]; top.when != 3*time.Millisecond || !top.settled() {
		t.Fatalf("top queued at %v (settled %v), want the lane's head at 3ms", top.when, top.settled())
	}
	s.Close()
	if s.TimerHeapLen() != 0 || fired != 0 {
		t.Fatalf("after Close: %d entries, %d fired", s.TimerHeapLen(), fired)
	}
}
