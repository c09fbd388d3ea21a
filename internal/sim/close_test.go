package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settleGoroutines waits for the goroutine count to come back to
// baseline. A coroutine that is stopped is gone when stop returns; the
// wait is for native goroutines (an earlier test's pool) that exit on
// their own schedule.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after Close", baseline, n)
		}
	}
}

// parkSites reports where each unfinished proc is parked ("" for one
// that has not parked: never dispatched).
func parkSites(s *Scheduler) map[string]string {
	sites := make(map[string]string)
	for _, p := range s.procs {
		sites[p.name] = p.blockedAt()
	}
	return sites
}

// TestCloseUnwindsEveryParkedProc: one proc parked at each kind of park
// site, one still on the run queue and never dispatched, and one whose
// deferred function blocks again. Close runs every deferred function
// exactly once and leaves no goroutine.
func TestCloseUnwindsEveryParkedProc(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(1)
	never := NewCond(s, "never")

	deferred := make(map[string]int)
	spawn := func(name string, body func()) {
		s.Go(name, func() {
			defer func() { deferred[name]++ }()
			body()
			t.Errorf("%s ran past its park site", name)
		})
	}
	spawn("sleep", func() { s.Sleep(time.Hour) })
	spawn("wait", never.Wait)
	spawn("wait-timeout", func() { never.WaitTimeout(time.Hour) })
	spawn("blocks-in-defer", func() {
		defer func() {
			deferred["inner"]++
			s.Sleep(time.Second) // parks again: unwound again
			t.Error("a deferred Sleep returned on a closed scheduler")
		}()
		never.Wait()
	})
	// yield runs before stopper at the same instant, so it is on the run
	// queue, parked in Yield, when the loop stops.
	spawn("yield", func() {
		s.Sleep(time.Microsecond)
		s.Yield()
	})
	s.Go("stopper", func() {
		s.Sleep(time.Microsecond)
		s.Go("never-dispatched", func() { t.Error("never-dispatched ran") })
		s.Stop()
	})
	s.RunFor(time.Millisecond)

	want := map[string]string{
		"sleep": "sleep", "wait": "wait never", "wait-timeout": "wait never",
		"blocks-in-defer": "wait never", "yield": "yield", "never-dispatched": "",
	}
	if got := parkSites(s); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("park sites before Close:\n got %v\nwant %v", got, want)
	}

	s.Close()
	for name := range want {
		wantRuns := 1
		if name == "never-dispatched" {
			wantRuns = 0
		}
		if deferred[name] != wantRuns {
			t.Errorf("%s: deferred function ran %d times, want %d", name, deferred[name], wantRuns)
		}
	}
	if deferred["inner"] != 1 {
		t.Errorf("the blocking deferred function ran %d times, want 1", deferred["inner"])
	}
	if len(s.procs) != 0 || s.live != 0 || len(s.idle) != 0 || s.runqLen() != 0 || len(s.timers) != 0 || s.cur != nil {
		t.Errorf("after Close: %d procs, %d live, %d idle, %d runnable, %d timers, cur %v",
			len(s.procs), s.live, len(s.idle), s.runqLen(), len(s.timers), s.cur)
	}
	settleGoroutines(t, baseline)

	s.Close() // idempotent
	for name, fn := range map[string]func(){
		"Go":     func() { s.Go("late", func() {}) },
		"Run":    s.Run,
		"RunFor": func() { s.RunFor(time.Second) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "closed scheduler") {
					t.Errorf("%s after Close: recovered %v, want the closed-scheduler panic", name, r)
				}
			}()
			fn()
		}()
	}
}

// TestCloseWakesOfUnwoundProcsAreIgnored: a deferred call that signals
// or broadcasts to procs Close has already unwound does not trip the
// waking-a-finished-proc check, whichever of the two goes first.
func TestCloseWakesOfUnwoundProcsAreIgnored(t *testing.T) {
	s := New(1)
	c := NewCond(s, "c")
	d := NewCond(s, "d")
	wg := NewWaitGroup(s, "wg")
	wg.Add(2)
	for i := 0; i < 2; i++ {
		s.Go("worker", func() {
			defer wg.Done()
			defer c.Broadcast()
			defer d.Signal()
			c.Wait()
		})
	}
	s.Go("receiver", func() { defer c.Signal(); d.Wait() })
	s.Go("parent", func() { defer c.Broadcast(); wg.Wait() })
	s.RunFor(time.Millisecond)
	s.Close()
	if len(s.procs) != 0 {
		t.Fatalf("%d procs left", len(s.procs))
	}
}

// TestCloseSentinelRecovered: a proc whose own recover swallows the
// sentinel just finishes, and one that recovers in a loop and blocks
// again is unwound again; Close returns either way.
func TestCloseSentinelRecovered(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(1)
	never := NewCond(s, "never")
	swallowed, finished, rounds := 0, false, 0
	s.Go("swallows", func() {
		func() {
			defer func() {
				if recover() != nil {
					swallowed++
				}
			}()
			never.Wait()
		}()
		finished = true
	})
	s.Go("loops", func() {
		for rounds < 3 {
			func() {
				defer func() { recover(); rounds++ }()
				never.Wait()
			}()
		}
	})
	s.RunFor(time.Millisecond)
	s.Close()
	if swallowed != 1 || !finished {
		t.Errorf("swallowing proc: recovered %d times, finished %v", swallowed, finished)
	}
	if rounds != 3 {
		t.Errorf("looping proc was unwound %d times, want 3", rounds)
	}
	if len(s.procs) != 0 || len(s.idle) != 0 {
		t.Errorf("after Close: %d procs, %d idle workers", len(s.procs), len(s.idle))
	}
	settleGoroutines(t, baseline)
}

// explode is the frame a proc's panic report must show.
//
//go:noinline
func explode(v any) { panic(v) }

// TestProcPanicNamesProcAndStack: a panic in a proc reaches the caller
// of Run naming the proc and carrying the proc's stack, and the
// scheduler can still be closed.
func TestProcPanicNamesProcAndStack(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(1)
	never := NewCond(s, "never")
	unwound := false
	s.Go("bystander", func() {
		defer func() { unwound = true }()
		never.Wait()
	})
	s.Go("bomber", func() {
		s.Sleep(time.Microsecond)
		explode(fmt.Errorf("boom %d", 7))
	})
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.HasPrefix(msg, `sim: proc "bomber" panicked: boom 7`) {
				t.Errorf("panic does not name the proc and its value:\n%s", msg)
			}
			for _, frame := range []string{"sim.explode", "TestProcPanicNamesProcAndStack"} {
				if !strings.Contains(msg, frame) {
					t.Errorf("panic does not carry the proc's stack (no %s):\n%s", frame, msg)
				}
			}
		}()
		s.Run()
		t.Error("Run returned")
	}()
	if s.cur != nil || s.running || len(s.procs) != 1 {
		t.Errorf("after the panic: cur %v, running %v, %d procs", s.cur, s.running, len(s.procs))
	}
	s.Close()
	if !unwound {
		t.Error("Close after a proc panic did not unwind the other proc")
	}
	settleGoroutines(t, baseline)
}

// TestProcGoexitEndsTheRunner: runtime.Goexit in a proc (t.Fatal in a
// proc of a test) ends the goroutine that called Run, after that
// goroutine's own deferred calls — so a deferred Close still runs.
func TestProcGoexitEndsTheRunner(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(1)
	never := NewCond(s, "never")
	var log []string
	s.Go("bystander", func() {
		defer func() { log = append(log, "bystander unwound") }()
		never.Wait()
	})
	s.Go("quitter", func() {
		defer func() { log = append(log, "quitter deferred") }()
		s.Sleep(time.Microsecond)
		runtime.Goexit()
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			log = append(log, "runner deferred")
			s.Close()
		}()
		s.Run()
		log = append(log, "Run returned")
	}()
	<-done
	want := "[quitter deferred runner deferred bystander unwound]"
	if got := fmt.Sprint(log); got != want {
		t.Errorf("order of events:\n got %s\nwant %s", got, want)
	}
	settleGoroutines(t, baseline)
}

// TestCloseInsideRunPanics: Close cannot unwind the proc that calls it.
func TestCloseInsideRunPanics(t *testing.T) {
	s := New(1)
	defer s.Close()
	s.Go("closer", s.Close)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "Close called from inside Run") {
			t.Errorf("recovered %q", msg)
		}
	}()
	s.Run()
}
