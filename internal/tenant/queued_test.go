package tenant

import (
	"math/rand"
	"testing"
	"time"
)

// TestQueuedBitmapWalk: nextQueued visits exactly the marked sessions in
// index order, across word boundaries, honours the limit, and sees a
// session marked ahead of the cursor while a walk is under way (a driver
// submitting while the pump is parked mid-scan).
func TestQueuedBitmapWalk(t *testing.T) {
	g := &Gateway{}
	marked := []int{0, 1, 63, 64, 65, 127, 128, 1999}
	for _, i := range marked {
		g.markQueued(i, 2)
	}
	if g.pendingTotal() != 2*len(marked) {
		t.Fatalf("pendingTotal %d, want %d", g.pendingTotal(), 2*len(marked))
	}
	walk := func(limit int) []int {
		var got []int
		for i := g.nextQueued(0, limit); i < limit; i = g.nextQueued(i+1, limit) {
			got = append(got, i)
			if i == 64 {
				g.markQueued(70, 1) // ahead of the cursor: this walk sees it
				g.markQueued(2, 1)  // behind it: the next walk does
			}
		}
		return got
	}
	equal := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if got, want := walk(2000), []int{0, 1, 63, 64, 65, 70, 127, 128, 1999}; !equal(got, want) {
		t.Fatalf("first walk %v, want %v", got, want)
	}
	if got, want := walk(128), []int{0, 1, 2, 63, 64, 65, 70, 127}; !equal(got, want) {
		t.Fatalf("walk below 128 %v, want %v", got, want)
	}
	if i := g.nextQueued(2000, 5000); i != 5000 {
		t.Fatalf("past the last mark: %d, want the limit", i)
	}
	if i := (&Gateway{}).nextQueued(0, 10); i != 10 {
		t.Fatalf("empty bitmap: %d, want the limit", i)
	}
}

// TestLazyTopUpMatchesEagerRefill: a bucket topped up at every refill
// instant and one topped up only when its balance is read hold the same
// balance at every read — the bucket is a function of virtual time and
// of what was spent, not of how often it was refilled.
func TestLazyTopUpMatchesEagerRefill(t *testing.T) {
	g := &Gateway{Opts: Options{Credits: 8, RefillEvery: 20 * time.Microsecond, RefillAmount: 3}}
	eager, lazy := &TenantSession{credits: 8}, &TenantSession{credits: 8}
	rng := rand.New(rand.NewSource(11))
	reads := 0
	for step := 0; step < 20_000; step++ {
		g.refillAt += time.Duration(rng.Intn(35)) * time.Microsecond
		g.topUp(eager)
		if rng.Intn(4) != 0 {
			continue
		}
		g.topUp(lazy)
		reads++
		if eager.credits != lazy.credits || eager.lastRefill != lazy.lastRefill {
			t.Fatalf("step %d at %v: eager %d credits (refilled to %v), lazy %d (%v)",
				step, g.refillAt, eager.credits, eager.lastRefill, lazy.credits, lazy.lastRefill)
		}
		spend := rng.Intn(lazy.credits + 1)
		eager.credits -= spend
		lazy.credits -= spend
	}
	if reads < 1000 {
		t.Fatalf("only %d reads compared", reads)
	}
}
