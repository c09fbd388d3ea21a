package sim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkSchedDispatch measures the cost of one proc dispatch round
// trip (resume the proc, proc parks, control returns to the loop) — the
// fundamental unit the event engine pays for every managed-proc step.
func BenchmarkSchedDispatch(b *testing.B) {
	s := New(1)
	s.Go("spin", func() {
		for i := 0; i < b.N; i++ {
			s.Yield()
			// Nudge the clock well inside the livelock limit so large
			// b.N does not read as a dispatch cycle.
			if i%1_000_000 == 999_999 {
				s.Sleep(time.Nanosecond)
			}
		}
	})
	b.ResetTimer()
	s.Run()
}

// BenchmarkTimerFire measures the timer-only fast path: a chain of
// AfterFunc callbacks with no managed proc involved, the shape of the
// fabric's entire delivery load.
func BenchmarkTimerFire(b *testing.B) {
	s := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			s.AfterFunc(time.Nanosecond, tick)
		}
	}
	b.ResetTimer()
	s.AfterFunc(time.Nanosecond, tick)
	s.Run()
	if n != b.N {
		b.Fatalf("fired %d of %d", n, b.N)
	}
}

// BenchmarkTimerCancel measures the arm/cancel cycle of one-shot timers
// that rarely fire (call timeouts): the cancelled timer must not burden
// later heap operations.
func BenchmarkTimerCancel(b *testing.B) {
	s := New(1)
	s.Go("arm-cancel", func() {
		for i := 0; i < b.N; i++ {
			tm := s.AfterFunc(time.Millisecond, func() {})
			tm.Cancel()
			if i%1024 == 1023 {
				s.Sleep(time.Microsecond)
			}
		}
	})
	b.ResetTimer()
	s.Run()
}

// BenchmarkLaneFire measures one timer fire on the data path: a frame's
// delivery, whose ACK pushes back one QP's retransmission timer, with 64
// frames in flight on one delivery lane and 16 or 1024 QPs armed on one
// RTO lane. The heap holds the two lanes whatever the QP count, so the
// cost of a fire should not grow with it.
func BenchmarkLaneFire(b *testing.B) {
	const (
		inFlight = 64
		slot     = 100 * time.Nanosecond // one frame's serialization
		rto      = 500 * time.Microsecond
	)
	for _, owners := range []int{16, 1024} {
		b.Run(fmt.Sprintf("owners=%d", owners), func(b *testing.B) {
			s := New(1)
			defer s.Close()
			var frames, rtos Lane
			rtoTimers := make([]LaneTimer, owners)
			frameTimers := make([]LaneTimer, min(inFlight, b.N))
			fired := 0
			frames.Init(s, func(arg any) {
				rtos.Arm(&rtoTimers[fired%owners], rto, nil)
				if fired++; fired <= b.N-len(frameTimers) {
					lt := arg.(*LaneTimer)
					frames.Arm(lt, inFlight*slot, lt)
				}
				if fired == b.N {
					for i := range rtoTimers {
						rtoTimers[i].Cancel()
					}
				}
			})
			rtos.Init(s, func(any) { b.Fatal("a retransmission timer fired") })
			for i := range rtoTimers {
				rtos.Arm(&rtoTimers[i], rto, nil)
			}
			for i := range frameTimers {
				frames.Arm(&frameTimers[i], time.Duration(i+1)*slot, &frameTimers[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			s.Run()
			if fired != b.N {
				b.Fatalf("fired %d of %d", fired, b.N)
			}
		})
	}
}

// BenchmarkSleep measures a proc sleeping through a timer, covering the
// park → timer fire → ready → dispatch path.
func BenchmarkSleep(b *testing.B) {
	s := New(1)
	s.Go("sleeper", func() {
		for i := 0; i < b.N; i++ {
			s.Sleep(time.Nanosecond)
		}
	})
	b.ResetTimer()
	s.Run()
}
