package sim

import (
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

// BenchmarkTimerRearm measures what a retransmission timer costs on
// every acknowledged message: one handle pushed back in place.
func BenchmarkTimerRearm(b *testing.B) {
	s := New(1)
	var h Timer
	s.Go("rearm", func() {
		for i := 0; i < b.N; i++ {
			s.Rearm(&h, time.Millisecond, func(any) {}, nil)
			if i%1024 == 1023 {
				s.Sleep(time.Microsecond)
			}
		}
		h.Cancel()
	})
	b.ResetTimer()
	s.Run()
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
