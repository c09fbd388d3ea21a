package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// TestPropTimerOrder: timers fire in deadline order regardless of the
// order they were armed in.
func TestPropTimerOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 || len(delays) > 64 {
			return true
		}
		s := New(4)
		var fired []time.Duration
		for _, d := range delays {
			d := time.Duration(d) * time.Microsecond
			s.AfterFunc(d, func() { fired = append(fired, s.Now()) })
		}
		s.Go("noop", func() {})
		s.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPropDeterminism: the same program produces the same event trace
// on every run.
func TestPropDeterminism(t *testing.T) {
	trace := func(seed int64) []int64 {
		s := New(seed)
		var out []int64
		var q []int
		ready := NewCond(s, "d")
		for i := 0; i < 4; i++ {
			i := i
			s.Go("p", func() {
				s.Sleep(time.Duration(s.Rand().Intn(1000)) * time.Microsecond)
				q = append(q, i)
				ready.Signal()
			})
		}
		s.Go("c", func() {
			for i := 0; i < 4; i++ {
				for len(q) == 0 {
					ready.Wait()
				}
				v := q[0]
				q = q[1:]
				out = append(out, int64(v)*1000+int64(s.Now()/time.Microsecond))
			}
		})
		s.Run()
		return out
	}
	for seed := int64(1); seed < 6; seed++ {
		a, b := trace(seed), trace(seed)
		if len(a) != 4 || len(b) != 4 {
			t.Fatalf("seed %d: traces of %d and %d events, want 4", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: traces diverge at %d", seed, i)
			}
		}
	}
}
