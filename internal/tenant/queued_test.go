package tenant

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestQueuedBitmapWalk: a walk with nextSendable visits exactly the
// marked sessions in index order, across word and level boundaries,
// honours the limit, and sees a session marked ahead of the cursor while
// the walk is under way (a driver submitting while the pump is parked
// mid-scan) — the one behind it is for the next walk.
func TestQueuedBitmapWalk(t *testing.T) {
	const lanes, depth = 3, 4
	ready := make([]readySet, lanes)
	inflight := make([]int, lanes)
	mark := func(i int) { ready[i%lanes].add(i) }
	marked := []int{0, 1, 63, 64, 65, 127, 128, 1999, 4095, 4096, 4097, 262143, 262144, 300000}
	for _, i := range marked {
		mark(i)
	}
	walk := func(limit int) []int {
		var got []int
		for from := 0; ; {
			i, consulted := nextSendable(ready, inflight, depth, from, limit)
			if consulted != lanes {
				t.Fatalf("consulted %d sets with %d lanes open", consulted, lanes)
			}
			if i >= limit {
				if i != limit {
					t.Fatalf("walk ended at %d, want the limit %d", i, limit)
				}
				return got
			}
			got = append(got, i)
			from = i + 1
			if i == 64 {
				mark(70) // ahead of the cursor: this walk sees it
				mark(2)  // behind it: the next walk does
			}
		}
	}
	if got, want := walk(1<<20), []int{0, 1, 63, 64, 65, 70, 127, 128, 1999, 4095, 4096, 4097, 262143, 262144, 300000}; !slices.Equal(got, want) {
		t.Fatalf("first walk %v, want %v", got, want)
	}
	if got, want := walk(128), []int{0, 1, 2, 63, 64, 65, 70, 127}; !slices.Equal(got, want) {
		t.Fatalf("walk below 128 %v, want %v", got, want)
	}
	// Lane 1 full: its sessions (index ≡ 1 mod 3) drop out, and its set is
	// not consulted.
	inflight[1] = depth
	var got []int
	for from := 0; ; {
		i, consulted := nextSendable(ready, inflight, depth, from, 5000)
		if consulted != lanes-1 {
			t.Fatalf("consulted %d sets with one of %d lanes full", consulted, lanes)
		}
		if i >= 5000 {
			break
		}
		got = append(got, i)
		from = i + 1
	}
	if want := []int{0, 2, 63, 65, 128, 4095, 4097}; !slices.Equal(got, want) {
		t.Fatalf("walk with lane 1 full %v, want %v", got, want)
	}
	ready[0].remove(63)
	ready[0].remove(4095)
	ready[0].remove(4095) // not a member any more: no effect
	if i, _ := nextSendable(ready, inflight, depth, 3, 5000); i != 65 {
		t.Fatalf("after removing 63: next from 3 is %d, want 65", i)
	}
	if i, _ := nextSendable(ready, inflight, depth, 300001, 1<<20); i != 1<<20 {
		t.Fatalf("past the last mark: %d, want the limit", i)
	}
	if i, consulted := nextSendable(make([]readySet, 2), []int{0, depth}, depth, 0, 10); i != 10 || consulted != 1 {
		t.Fatalf("empty sets: %d after %d sets, want the limit after 1", i, consulted)
	}
}

// TestReadySetMatchesBoolSlice drives a readySet and a []bool with the
// same random adds, removes and successor queries, at sizes on both
// sides of the one-, two- and three-level boundaries.
func TestReadySetMatchesBoolSlice(t *testing.T) {
	for _, size := range []int{1, 64, 65, 4096, 4097, 300_000} {
		rng := rand.New(rand.NewSource(int64(size)))
		var r readySet
		ref := make([]bool, size)
		refNext := func(from int) int {
			for i := from; i < size; i++ {
				if ref[i] {
					return i
				}
			}
			return -1
		}
		// Sparse and clustered by turns: members come from a window that
		// moves, so long empty runs and dense words both occur.
		for step := 0; step < 4000; step++ {
			base := 0
			if step%500 >= 250 {
				base = rng.Intn(size)
			}
			i := (base + rng.Intn(1+min(size-1, 200))) % size
			switch rng.Intn(3) {
			case 0, 1:
				r.add(i)
				ref[i] = true
			default:
				r.remove(i)
				ref[i] = false
			}
			from := rng.Intn(size + 70)
			if step%3 == 0 {
				from = max(0, i-rng.Intn(130))
			}
			if got, want := r.next(from), refNext(from); got != want {
				t.Fatalf("size %d step %d: next(%d) = %d, want %d", size, step, from, got, want)
			}
		}
	}
}

// sendModel is the state trySend's scheduling depends on, without the
// wire: which sessions have how much queued, who is out of credits, how
// full each lane is. Two copies are driven by identical scripts, one
// walked with the ready sets and one by visiting every session.
type sendModel struct {
	lanes, depth int
	lane         []int  // session → lane
	data, probes []int  // queued operations per session
	stalled      []bool // out of credits: data waits, probes do not
	closed       []bool
	inflight     []int
	ready        []readySet // kept by both copies; only the fast walk reads it
	log          []string
	rng          *rand.Rand
}

func newSendModel(lanes, depth, sessions int, seed int64) *sendModel {
	m := &sendModel{lanes: lanes, depth: depth, inflight: make([]int, lanes),
		ready: make([]readySet, lanes), rng: rand.New(rand.NewSource(seed))}
	m.open(sessions)
	return m
}

func (m *sendModel) open(n int) {
	for ; n > 0; n-- {
		// Session IDs need not start at a multiple of the lane count.
		m.lane = append(m.lane, (len(m.lane)+5)%m.lanes)
		m.data = append(m.data, 0)
		m.probes = append(m.probes, 0)
		m.stalled = append(m.stalled, false)
		m.closed = append(m.closed, false)
	}
}

func (m *sendModel) submit(i, data, probes int) {
	m.data[i] += data
	m.probes[i] += probes
	if data+probes > 0 {
		m.ready[m.lane[i]].add(i)
	}
}

// churn is what other procs do while the pump is parked in a post, or
// between two pump iterations: submit, probe, run a session out of
// credits or refill it, close one, open more.
func (m *sendModel) churn(events int) {
	for ; events > 0; events-- {
		i := m.rng.Intn(len(m.lane))
		switch k := m.rng.Intn(16); {
		case k < 7:
			if !m.closed[i] || m.rng.Intn(8) == 0 { // late traffic on a closed session is still sent
				m.submit(i, 1+m.rng.Intn(3), 0)
			}
		case k < 9:
			m.submit(i, 0, 1)
		case k < 12:
			m.stalled[i] = !m.stalled[i]
		case k < 13:
			m.closed[i] = true
		case k < 14:
			m.open(1 + m.rng.Intn(3))
		}
	}
}

// visit is the body of trySend's loop for a session that has something
// queued on a lane with window; it reports whether it posted.
func (m *sendModel) visit(i int) bool {
	m.log = append(m.log, fmt.Sprintf("visit %d", i))
	switch {
	case m.probes[i] > 0:
		m.probes[i]--
	case m.stalled[i]:
		return false
	default:
		m.data[i]--
	}
	m.inflight[m.lane[i]]++
	m.log = append(m.log, fmt.Sprintf("post %d on lane %d", i, m.lane[i]))
	if m.rng.Intn(4) == 0 {
		m.churn(1 + m.rng.Intn(3)) // the post parked
	}
	if m.data[i]+m.probes[i] == 0 {
		m.ready[m.lane[i]].remove(i)
	}
	return true
}

// trySendNaive walks every session and skips the idle ones and those on
// a full lane: the whole-population walk the ready sets replaced.
func (m *sendModel) trySendNaive() {
	for again := true; again; {
		again = false
		for i, n := 0, len(m.lane); i < n; i++ {
			if m.data[i]+m.probes[i] == 0 || m.inflight[m.lane[i]] >= m.depth {
				continue
			}
			if m.visit(i) {
				again = true
			}
		}
	}
}

// trySendReady is trySend's loop. It also holds each pass to its cost:
// one set per open lane for every visit, and once more to find the end.
func (m *sendModel) trySendReady(t *testing.T) {
	for again := true; again; {
		again = false
		open := 0
		for _, n := range m.inflight {
			if n < m.depth {
				open++
			}
		}
		visits, steps := 0, 0
		for from, n := 0, len(m.lane); ; {
			i, consulted := nextSendable(m.ready, m.inflight, m.depth, from, n)
			steps += consulted
			if i >= n {
				break
			}
			from = i + 1
			visits++
			if m.visit(i) {
				again = true
			}
		}
		if steps > (visits+1)*open {
			t.Fatalf("a pass of %d visits with %d lanes open consulted %d sets", visits, open, steps)
		}
	}
}

// TestReadySetWalkMatchesNaiveWalk: for any lane count, under submits,
// probes, credit stalls, closes, opens and window changes — between
// pump iterations and in the middle of a walk — sending from the
// per-lane ready sets visits and posts exactly what walking every
// session does, in the same order.
func TestReadySetWalkMatchesNaiveWalk(t *testing.T) {
	for _, lanes := range []int{1, 2, 3, 8} {
		for seed := int64(1); seed <= 6; seed++ {
			const depth = 4
			naive := newSendModel(lanes, depth, 150, seed)
			fast := newSendModel(lanes, depth, 150, seed)
			for iter := 0; iter < 400; iter++ {
				for _, m := range []*sendModel{naive, fast} {
					m.churn(m.rng.Intn(12))
					// Completions: windows reopen a slot at a time, now and
					// then a whole lane drains.
					for l := range m.inflight {
						switch m.rng.Intn(6) {
						case 0, 1:
							m.inflight[l] = max(0, m.inflight[l]-1)
						case 2:
							if m.rng.Intn(10) == 0 {
								m.inflight[l] = 0
							}
						}
					}
				}
				naive.trySendNaive()
				fast.trySendReady(t)
				if !slices.Equal(naive.log, fast.log) {
					for k := range naive.log {
						if k >= len(fast.log) || naive.log[k] != fast.log[k] {
							t.Fatalf("lanes %d seed %d iteration %d: event %d: naive %q, ready sets %q",
								lanes, seed, iter, k, naive.log[k], append(fast.log, "(nothing)")[k])
						}
					}
					t.Fatalf("lanes %d seed %d iteration %d: ready sets did %d events more: %q",
						lanes, seed, iter, len(fast.log)-len(naive.log), fast.log[len(naive.log)])
				}
				naive.log, fast.log = naive.log[:0], fast.log[:0]
			}
			if !slices.Equal(naive.data, fast.data) || !slices.Equal(naive.inflight, fast.inflight) {
				t.Fatalf("lanes %d seed %d: final queues or windows differ", lanes, seed)
			}
		}
	}
}

// TestSendStepsIndependentOfPopulation pins what sending costs, in set
// lookups rather than time: with credits to spare, a trySend consults
// one set per open lane for each operation it posts and once more to
// find nothing left, and there are at most as many trySends as
// completions — two an operation. So a run's lookups are bounded by its
// operations times a constant, whatever the number of sessions they are
// spread over; a walk over the population would grow with it.
func TestSendStepsIndependentOfPopulation(t *testing.T) {
	const lanes, perSession = 8, 4
	perPost := func(sessions int) float64 {
		opts := Options{Sessions: sessions, Lanes: lanes, LaneDepth: 16}
		r := newRig(t, 41, opts)
		defer r.cl.Close()
		r.cl.Sched.Go("driver", func() {
			r.gw.WaitReady()
			r.gw.SubmitAll(perSession)
			r.gw.Drain()
			if v := r.gw.CheckInvariants(); len(v) != 0 {
				t.Errorf("invariants: %v", v)
			}
			r.finish(t)
		})
		r.cl.Sched.RunFor(2 * time.Second)
		if !r.gw.done {
			t.Fatalf("%d sessions: gateway never drained", sessions)
		}
		if r.gw.Stats.CreditStalls != 0 {
			t.Fatalf("%d sessions: %d credit stalls in a run meant to have none", sessions, r.gw.Stats.CreditStalls)
		}
		posts := sessions * perSession
		if r.gw.sendSteps > 4*lanes*posts {
			t.Errorf("%d sessions: %d set lookups for %d posts, want at most %d", sessions, r.gw.sendSteps, posts, 4*lanes*posts)
		}
		return float64(r.gw.sendSteps) / float64(posts)
	}
	small, large := perPost(200), perPost(1600)
	t.Logf("set lookups per post: %.2f at 200 sessions, %.2f at 1600", small, large)
	if large > 1.25*small {
		t.Errorf("set lookups per post grew from %.2f to %.2f with 8× the sessions", small, large)
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
