package sim

import (
	"sync/atomic"
	"testing"
)

// TestDeriveSeedStable pins the derivation so recorded runs stay
// replayable across refactors.
func TestDeriveSeedStable(t *testing.T) {
	if DeriveSeed(1, 0) == DeriveSeed(1, 1) {
		t.Fatal("sub-stream seeds collide")
	}
	if DeriveSeed(1, 0) != DeriveSeed(1, 0) {
		t.Fatal("derivation not stable")
	}
}

// TestRunIndexed: every index runs exactly once and a result written to
// its own slot lands in input order, at every pool size including the
// ones clamped to one worker and to n. Under -race the pool is real, so
// this is also where the detector watches the handoff.
func TestRunIndexed(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64} {
		for _, workers := range []int{-1, 1, 4, 16} {
			calls := make([]atomic.Int32, n)
			out := make([]int, n)
			RunIndexed(n, workers, func(i int) {
				calls[i].Add(1)
				out[i] = i * i
			})
			for i := range out {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
				if out[i] != i*i {
					t.Errorf("n=%d workers=%d: out[%d] = %d, want %d", n, workers, i, out[i], i*i)
				}
			}
		}
	}
}
