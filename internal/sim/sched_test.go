package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	s := New(1)
	var at time.Duration
	s.Go("sleeper", func() {
		s.Sleep(5 * time.Millisecond)
		at = s.Now()
	})
	s.Run()
	if at != 5*time.Millisecond {
		t.Fatalf("woke at %v, want 5ms", at)
	}
}

func TestSleepOrdering(t *testing.T) {
	s := New(1)
	var order []string
	s.Go("b", func() {
		s.Sleep(2 * time.Millisecond)
		order = append(order, "b")
	})
	s.Go("a", func() {
		s.Sleep(1 * time.Millisecond)
		order = append(order, "a")
	})
	s.Go("c", func() {
		s.Sleep(3 * time.Millisecond)
		order = append(order, "c")
	})
	s.Run()
	if got := order; len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("order = %v, want [a b c]", got)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Go("p", func() {
			s.Sleep(time.Millisecond)
			order = append(order, i)
		})
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestAfterFunc(t *testing.T) {
	s := New(1)
	fired := time.Duration(-1)
	s.AfterFunc(7*time.Millisecond, func() { fired = s.Now() })
	s.Go("noop", func() {})
	s.Run()
	if fired != 7*time.Millisecond {
		t.Fatalf("callback at %v, want 7ms", fired)
	}
}

func TestAfterFuncCancel(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.AfterFunc(7*time.Millisecond, func() { fired = true })
	s.Go("canceller", func() {
		s.Sleep(time.Millisecond)
		if !tm.Cancel() {
			t.Error("Cancel reported failure before fire")
		}
	})
	s.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestRunForStopsAtHorizon(t *testing.T) {
	s := New(1)
	var woke bool
	s.Go("late", func() {
		s.Sleep(10 * time.Millisecond)
		woke = true
	})
	s.RunFor(5 * time.Millisecond)
	if woke {
		t.Fatal("proc past horizon ran")
	}
	s.RunFor(5 * time.Millisecond)
	if !woke {
		t.Fatal("proc did not run after horizon extended")
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	s := New(1)
	c := NewCond(s, "never")
	s.Go("stuck", func() { c.Wait() })
	s.Run()
}

// TestDeadlockReportNamesAndSites pins the diagnostic content: the
// panic must name every stuck proc with the site it parked at, so a
// hung simulation reads as "who is waiting on what" instead of a bare
// "deadlock".
func TestDeadlockReportNamesAndSites(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{
			"2 proc(s) blocked forever",
			"cq-poller (blocked at: wait cq@dst)",
			"rx-loop (blocked at: wait work)",
			"recently dispatched",
		} {
			if !strings.Contains(msg, want) {
				t.Errorf("deadlock report missing %q:\n%s", want, msg)
			}
		}
	}()
	s := New(1)
	cq := NewCond(s, "cq@dst")
	work := NewCond(s, "work")
	s.Go("cq-poller", func() { cq.Wait() })
	s.Go("rx-loop", func() { work.Wait() })
	// A proc that finishes cleanly must not appear in the report.
	s.Go("done-fine", func() { s.Sleep(time.Microsecond) })
	s.Run()
}

func TestCondSignalBroadcast(t *testing.T) {
	s := New(1)
	c := NewCond(s, "c")
	woken := 0
	for i := 0; i < 3; i++ {
		s.Go("w", func() {
			c.Wait()
			woken++
		})
	}
	s.Go("sig", func() {
		s.Sleep(time.Millisecond)
		c.Signal()
		s.Sleep(time.Millisecond)
		if woken != 1 {
			t.Errorf("after Signal woken=%d, want 1", woken)
		}
		c.Broadcast()
	})
	s.Run()
	if woken != 3 {
		t.Fatalf("woken=%d, want 3", woken)
	}
}

func TestCondWaitTimeout(t *testing.T) {
	s := New(1)
	c := NewCond(s, "c")
	var timedOut, signalled bool
	s.Go("w1", func() {
		if ok := c.WaitTimeout(2 * time.Millisecond); !ok {
			timedOut = true
		}
	})
	s.Go("w2", func() {
		if ok := c.WaitTimeout(10 * time.Millisecond); ok {
			signalled = true
		}
	})
	s.Go("sig", func() {
		s.Sleep(5 * time.Millisecond)
		c.Signal()
	})
	s.Run()
	if !timedOut {
		t.Fatal("w1 should have timed out")
	}
	if !signalled {
		t.Fatal("w2 should have been signalled")
	}
}

func TestWaitGroup(t *testing.T) {
	s := New(1)
	wg := NewWaitGroup(s, "wg")
	var finished time.Duration
	for i := 1; i <= 3; i++ {
		i := i
		wg.Add(1)
		s.Go("worker", func() {
			s.Sleep(time.Duration(i) * time.Millisecond)
			wg.Done()
		})
	}
	s.Go("waiter", func() {
		wg.Wait()
		finished = s.Now()
	})
	s.Run()
	if finished != 3*time.Millisecond {
		t.Fatalf("waiter finished at %v, want 3ms", finished)
	}
}

func TestYieldInterleaves(t *testing.T) {
	s := New(1)
	var order []string
	s.Go("a", func() {
		order = append(order, "a1")
		s.Yield()
		order = append(order, "a2")
	})
	s.Go("b", func() {
		order = append(order, "b1")
		s.Yield()
		order = append(order, "b2")
	})
	s.Run()
	want := []string{"a1", "b1", "a2", "b2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeterministicRand(t *testing.T) {
	draw := func() []int64 {
		s := New(99)
		var out []int64
		s.Go("r", func() {
			for i := 0; i < 5; i++ {
				out = append(out, s.Rand().Int63())
			}
		})
		s.Run()
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draws differ at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestNestedSpawn(t *testing.T) {
	s := New(1)
	total := 0
	s.Go("parent", func() {
		for i := 0; i < 3; i++ {
			s.Go("child", func() {
				s.Sleep(time.Millisecond)
				total++
			})
		}
	})
	s.Run()
	if total != 3 {
		t.Fatalf("total=%d, want 3", total)
	}
}

// A cancel-heavy workload — arm a long timer, cancel it, repeat, the
// shape of a retransmission timer re-armed on every ACK — must not
// accumulate cancelled entries in the heap: compaction keeps the heap
// proportional to the number of live timers.
func TestCancelHeavyHeapBounded(t *testing.T) {
	s := New(1)
	s.Go("rearm", func() {
		for i := 0; i < 100_000; i++ {
			tm := s.AfterFunc(time.Hour, func() { t.Error("cancelled timer fired") })
			if !tm.Cancel() {
				t.Fatal("Cancel reported false for a pending timer")
			}
			if hl := s.TimerHeapLen(); hl > 2*compactMinTimers {
				t.Fatalf("timer heap grew to %d entries with zero live timers", hl)
			}
			if i%1024 == 0 {
				s.Sleep(time.Microsecond) // let the clock move occasionally
			}
		}
	})
	s.Run()
}

// A stale handle must stay inert after its timer struct is recycled:
// Cancel on it reports false and must not cancel the timer that now
// occupies the recycled struct.
func TestStaleTimerHandleInert(t *testing.T) {
	s := New(1)
	fired := 0
	s.Go("p", func() {
		old := s.AfterFunc(time.Microsecond, func() { fired++ })
		s.Sleep(time.Millisecond) // old fires and is recycled
		s.AfterFunc(time.Microsecond, func() { fired++ })
		if old.Cancel() {
			t.Error("stale handle cancelled a recycled timer")
		}
		var zero Timer
		if zero.Cancel() {
			t.Error("zero-value handle reported a cancellation")
		}
		s.Sleep(time.Millisecond)
	})
	s.Run()
	if fired != 2 {
		t.Fatalf("fired=%d, want 2", fired)
	}
}

// Cancelling more than half the heap triggers one-pass compaction; the
// surviving timers must still fire in (when, seq) order.
func TestCompactionPreservesOrder(t *testing.T) {
	s := New(1)
	var order []int
	s.Go("p", func() {
		var cancels []Timer
		for i := 0; i < compactMinTimers; i++ {
			i := i
			s.AfterFunc(time.Duration(i+1)*time.Millisecond, func() { order = append(order, i) })
			cancels = append(cancels,
				s.AfterFunc(time.Hour, func() { t.Error("cancelled fired") }),
				s.AfterFunc(time.Hour, func() { t.Error("cancelled fired") }))
		}
		for _, tm := range cancels {
			tm.Cancel()
		}
		// Cancelled entries became the strict majority mid-loop, so at
		// least one compaction ran; only a sub-majority remainder of
		// lazily-dropped entries may still sit in the heap.
		if hl := s.TimerHeapLen(); hl >= 2*compactMinTimers {
			t.Fatalf("heap has %d entries, compaction never ran (%d live)", hl, compactMinTimers)
		}
	})
	s.Run()
	if len(order) != compactMinTimers {
		t.Fatalf("fired %d timers, want %d", len(order), compactMinTimers)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("fire order[%d]=%d, want %d", i, v, i)
		}
	}
}

// TestCondWaitTimeoutAllocatesNothing pins the timed wait: neither
// the timeout path nor the signalled path allocates per wait (the
// timeout callback is shared, its argument the waiting proc).
func TestCondWaitTimeoutAllocatesNothing(t *testing.T) {
	s := New(1)
	c := NewCond(s, "c")
	timeouts, signals := 0, 0
	s.Go("waiter", func() {
		for {
			if c.WaitTimeout(10 * time.Microsecond) {
				signals++
			} else {
				timeouts++
			}
		}
	})
	round := 0
	cycle := func() {
		round++
		if round%2 == 0 {
			s.AfterFunc(5*time.Microsecond, c.Signal) // wake before the timeout
		}
		s.RunFor(10 * time.Microsecond)
	}
	for i := 0; i < 64; i++ {
		cycle() // warm the timer free list and the waiter slice
	}
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("Cond.WaitTimeout: %v allocs per wait, want 0", n)
	}
	if timeouts == 0 || signals == 0 {
		t.Fatalf("timeouts=%d signals=%d: both paths must have run", timeouts, signals)
	}
}

// TestCondWaitTimeoutSameInstantRace: a Signal and the timeout landing
// at the same instant wake the waiter once, as signalled when the signal
// is scheduled first and as timed out otherwise, and leave no waiter
// entry behind.
func TestCondWaitTimeoutSameInstantRace(t *testing.T) {
	for _, signalFirst := range []bool{true, false} {
		s := New(1)
		c := NewCond(s, "c")
		wakes, signalled := 0, false
		arm := func() { s.AfterFunc(time.Millisecond, c.Signal) }
		if signalFirst {
			arm()
		}
		s.Go("w", func() {
			signalled = c.WaitTimeout(time.Millisecond)
			wakes++
		})
		if !signalFirst {
			s.Go("arm", arm) // runs after w parked: the timeout is scheduled first
		}
		s.Run()
		if wakes != 1 || signalled != signalFirst || len(c.waiters) != 0 {
			t.Fatalf("signalFirst=%v: wakes=%d signalled=%v waiters=%d", signalFirst, wakes, signalled, len(c.waiters))
		}
	}
}

// TestTimerHeapPopsInTotalOrder checks the hand-written 4-ary heap
// against its specification: whatever the insertion order, and across an
// init over a filtered slice (what compaction does) or a re-key of the
// top (what a re-armed entry gets when it surfaces), pops come out
// sorted by (when, seq) — at sizes around a node's four children too.
func TestTimerHeapPopsInTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h timerHeap
	var seq uint64
	push := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			h.push(timerEntry{when: time.Duration(rng.Intn(50)), seq: seq})
		}
	}
	drain := func(n int) {
		var last timerEntry // seq 0: before every pushed entry at when 0
		for i := 0; i < n; i++ {
			e := h.pop()
			if e.less(last) {
				t.Fatalf("popped (%v,%d) after (%v,%d)", e.when, e.seq, last.when, last.seq)
			}
			last = e
		}
	}
	push(500)
	drain(200)
	// Compaction: drop every third entry in place, then re-heapify.
	kept := h[:0]
	for i, e := range h {
		if i%3 != 0 {
			kept = append(kept, e)
		}
	}
	h = kept
	h.init()
	push(100)
	// Re-key: move the top to a later deadline, as often as not past
	// everything queued.
	for i := 0; i < 50; i++ {
		seq++
		h[0].when, h[0].seq = h[0].when+time.Duration(rng.Intn(80)), seq
		h.down(0)
	}
	drain(len(h))
	for n := 0; n <= 11; n++ {
		push(n)
		rng.Shuffle(len(h), func(i, j int) { h[i], h[j] = h[j], h[i] })
		h.init()
		drain(n)
		if len(h) != 0 {
			t.Fatalf("%d entries left of %d", len(h), n)
		}
	}
}

// TestProcListTracksLiveProcs: finished procs leave the deadlock
// report's proc list, so a simulation spawning short-lived procs does
// not grow it.
func TestProcListTracksLiveProcs(t *testing.T) {
	s := New(1)
	c := NewCond(s, "parked")
	s.Go("first", func() { c.Wait() })
	for i := 0; i < 100; i++ {
		s.Go("short", func() { s.Sleep(time.Microsecond) })
	}
	s.Go("last", func() { c.Wait() })
	s.RunFor(time.Millisecond)
	if len(s.procs) != 2 {
		t.Fatalf("proc list holds %d procs, want the 2 still parked", len(s.procs))
	}
	for i, p := range s.procs {
		if p.slot != i {
			t.Fatalf("proc %q records slot %d, sits at %d", p.name, p.slot, i)
		}
	}
	if n := s.LiveBlocked(); n != 2 {
		t.Fatalf("LiveBlocked = %d, want 2", n)
	}
}

// TestRandIsSeededOnTheFirstDraw: a scheduler that never draws holds no
// random source (New allocates the scheduler alone), and one whose first
// draw comes after its procs ran draws the stream
// rand.New(rand.NewSource(seed)) draws.
func TestRandIsSeededOnTheFirstDraw(t *testing.T) {
	var kept *Scheduler
	if n := testing.AllocsPerRun(20, func() { kept = New(7) }); n != 1 || kept == nil {
		t.Errorf("New allocates %v times, want 1 (the scheduler, no source)", n)
	}
	s := New(7)
	defer s.Close()
	s.Go("sleeper", func() { s.Sleep(time.Millisecond) })
	s.Run()
	if s.rng != nil {
		t.Fatal("a scheduler that never drew built a random source")
	}
	want := rand.New(rand.NewSource(7))
	for i := 0; i < 16; i++ {
		if g, w := s.Rand().Int63(), want.Int63(); g != w {
			t.Fatalf("draw %d: %d, want %d", i, g, w)
		}
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
