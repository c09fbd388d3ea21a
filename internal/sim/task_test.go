package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// consumerLedger runs nProd producers feeding one consumer and returns
// the (time, who did what) ledger of the whole run. The consumer is a
// proc parked on a Cond, or a Task, by asTask; everything else —
// the plan drawn from seed, the producers, the driver — is shared.
//
// The plan covers the cases the rnic engine meets: a signal from a proc
// and from a timer callback, two signals before the consumer runs
// (wake while queued), an item whose handling produces another item and
// signals again (wake while running), and a Stop between a signal and
// the consumer's dispatch.
func consumerLedger(seed int64, nProd int, asTask bool) []string {
	s := New(1)
	defer s.Close()
	rng := rand.New(rand.NewSource(seed))
	var ledger []string
	note := func(format string, a ...any) {
		ledger = append(ledger, fmt.Sprintf("%v ", s.Now())+fmt.Sprintf(format, a...))
	}

	type item struct {
		id    string
		again bool // handling it produces a follow-up item
	}
	var q []item
	var signal func()
	drain := func() {
		for len(q) > 0 {
			it := q[0]
			q = q[1:]
			note("consumer %s", it.id)
			if it.again {
				q = append(q, item{id: it.id + "'"})
				signal()
			}
		}
	}
	if asTask {
		signal = s.NewTask("consumer", drain).Wake
	} else {
		c := NewCond(s, "work")
		signal = c.Signal
		// Spawned first, so it is parked before any producer runs — the
		// state a device's engine is in when its first frame arrives.
		s.Go("consumer", func() {
			for {
				if len(q) == 0 {
					c.Wait()
					continue
				}
				drain()
			}
		})
	}

	done := 0
	for p := 0; p < nProd; p++ {
		p := p
		steps := 1 + rng.Intn(6)
		plan := make([]int, steps)
		delays := make([]time.Duration, steps)
		for i := range plan {
			plan[i] = rng.Intn(5)
			delays[i] = time.Duration(rng.Intn(3)) * time.Microsecond // 0: same instant as others
		}
		s.Go(fmt.Sprintf("producer%d", p), func() {
			for i, kind := range plan {
				s.Sleep(delays[i])
				id := fmt.Sprintf("p%d.%d", p, i)
				note("produce %s kind %d", id, kind)
				switch kind {
				case 0: // plain signal from a proc
					q = append(q, item{id: id})
					signal()
				case 1: // two items, two signals, before the consumer can run
					q = append(q, item{id: id + "a"})
					signal()
					q = append(q, item{id: id + "b"})
					signal()
				case 2: // handling it signals the running consumer
					q = append(q, item{id: id, again: true})
					signal()
				case 3: // signal from a timer callback, off any proc
					s.AfterFunc(delays[i], func() {
						note("timer %s", id)
						q = append(q, item{id: id})
						signal()
					})
				case 4: // the driver stops the loop between signal and dispatch
					q = append(q, item{id: id})
					signal()
					s.Stop()
				}
			}
			done++
		})
	}
	// RunFor, not Run: the proc consumer stays parked on its Cond once
	// the work is done, which Run would report as a deadlock. The
	// horizon is far past the last event, so only a Stop ends a round.
	for runs := 0; done < nProd || len(q) > 0 || s.runqLen() > 0 || len(s.timers) > 0; runs++ {
		if runs > 1000 {
			panic("consumerLedger: simulation does not finish")
		}
		s.RunFor(time.Hour)
	}
	return ledger
}

// TestPropTaskMatchesCondConsumer: a task takes exactly the run-queue
// slots a proc parked on a Cond takes, so the two produce one ledger.
func TestPropTaskMatchesCondConsumer(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		nProd := 1 + int(n%5)
		proc := consumerLedger(seed, nProd, false)
		task := consumerLedger(seed, nProd, true)
		if !reflect.DeepEqual(proc, task) {
			t.Logf("seed %d, %d producers:\nproc: %v\ntask: %v", seed, nProd, proc, task)
			return false
		}
		return len(proc) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTaskWakeIsIdempotent pins Wake's three states directly: idle
// queues the task, queued and running drop the wake.
func TestTaskWakeIsIdempotent(t *testing.T) {
	s := New(1)
	runs := 0
	var tk *Task
	tk = s.NewTask("t", func() {
		runs++
		tk.Wake() // running: dropped
	})
	s.Go("waker", func() {
		tk.Wake()
		tk.Wake() // queued: dropped
		if s.runqLen() != 1 {
			t.Errorf("run queue holds %d entries after two wakes, want 1", s.runqLen())
		}
	})
	s.Run()
	if runs != 1 {
		t.Fatalf("task ran %d times, want 1", runs)
	}
	s.Go("again", tk.Wake) // idle again: runs once more
	s.Run()
	if runs != 2 {
		t.Fatalf("task ran %d times after a later wake, want 2", runs)
	}
}

// TestTaskMayNotBlock: a task runs with no current proc, so a blocking
// call inside it panics like one in a timer callback.
func TestTaskMayNotBlock(t *testing.T) {
	for name, block := range map[string]func(*Scheduler){
		"Sleep": func(s *Scheduler) { s.Sleep(time.Microsecond) },
		"Yield": func(s *Scheduler) { s.Yield() },
		"Wait":  func(s *Scheduler) { NewCond(s, "c").Wait() },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "outside a managed proc") {
					t.Fatalf("blocking in a task: recovered %v, want the outside-a-managed-proc panic", r)
				}
			}()
			s := New(1)
			s.NewTask("t", func() { block(s) }).Wake()
			s.Run()
		})
	}
}

// TestRecycledWorkerRunsAFreshProc: a proc spawned after another has
// returned takes over its worker, under its own
// ID and name — the deadlock report names it, not its predecessor.
func TestRecycledWorkerRunsAFreshProc(t *testing.T) {
	s := New(1)
	never := NewCond(s, "never")
	first := s.Go("first", func() {})
	var second *Proc
	s.Go("driver", func() {
		s.Sleep(time.Microsecond) // first has returned by now
		second = s.Go("second", func() { never.Wait() })
	})
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "1 proc(s) blocked forever") ||
			!strings.Contains(msg, "second (blocked at: wait never)") || strings.Contains(msg, "first (") {
			t.Errorf("deadlock report: %s", msg)
		}
		if second.w != first.w {
			t.Error("second did not take over first's worker")
		}
		if second == first || second.id == first.id || second.name != "second" || !first.done || second.done {
			t.Errorf("first %+v, second %+v", first, second)
		}
	}()
	s.Run()
}

// TestRunReleasesIdleWorkers: a simulation that is over leaves no
// goroutine behind for the procs that returned.
func TestRunReleasesIdleWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		s := New(int64(i))
		for j := 0; j < 20; j++ {
			s.Go("short", func() { s.Sleep(time.Microsecond) })
		}
		s.Run()
		if len(s.idle) != 0 {
			t.Fatalf("%d idle workers held after Run", len(s.idle))
		}
	}
	settleGoroutines(t, before)
}

// TestSpawnReusesWorkers: within one Run, short-lived procs spawned one
// after another cost a Proc each, not a goroutine and a channel.
func TestSpawnReusesWorkers(t *testing.T) {
	s := New(1)
	var allocs float64
	s.Go("driver", func() {
		spawn := func() {
			s.Go("short", func() {})
			s.Yield() // let it run and return
		}
		spawn()
		allocs = testing.AllocsPerRun(500, spawn)
	})
	s.Run()
	if allocs > 1 {
		t.Fatalf("spawning a proc onto an idle worker allocates %.0f times, want 1 (the Proc)", allocs)
	}
}
