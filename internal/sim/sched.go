package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Scheduler owns the virtual clock and the set of managed procs. The zero
// value is not usable; create one with New.
type Scheduler struct {
	now      time.Duration // virtual time since simulation start
	runq     []*Proc       // FIFO of runnable procs; head index below
	runqHead int           // first live element of runq
	timers   timerHeap
	seq      uint64 // tie-breaker for timers scheduled at the same instant
	live     int    // procs spawned and not yet finished
	cur      *Proc  // proc currently executing, nil when the loop runs

	stopped bool
	running bool // inside Run or RunFor
	closed  bool // Close has begun: nothing may be spawned or run
	// deadlockFatal makes Run panic when live procs are blocked with no
	// pending timers; RunFor tolerates that state (a later phase of the
	// driving test may wake them).
	deadlockFatal bool

	seed int64
	rng  *rand.Rand // built from seed on the first Rand

	nextProcID int64

	// Timer free list: fired and compacted timers are recycled here so
	// the per-packet delivery load allocates no timer structs in steady
	// state. Generation counters keep stale Timer handles inert.
	freeTimers []*timer
	// cancelledTimers counts cancelled entries still sitting in the heap
	// (they are dropped lazily at pop); when they outnumber the live
	// entries the heap is compacted in one pass.
	cancelledTimers int
	// timersPeak is the most entries the heap has held.
	timersPeak int

	// Livelock detection: dispatches since the clock last advanced.
	sameInstant int
	// recentNames is a fixed ring of the most recently dispatched proc
	// names, reported when the livelock limit trips. A ring (rather than
	// a shifted slice) keeps the dispatch hot path allocation-free.
	recentNames [recentNamesSize]string
	recentHead  int // next slot to write
	recentLen   int

	// idle holds the workers of procs whose function has returned, for Go
	// to reuse. runWhile releases them when it returns, so a simulation
	// that is over leaves no coroutine behind for them.
	idle []*worker

	// procs lists this scheduler's unfinished procs for deadlock
	// reporting (each carries a parked flag, so parking itself touches no
	// shared table). It is per-scheduler (not package-global) so that
	// independent schedulers — RunIndexed's parallel chaos sweeps — can
	// run on separate goroutines without sharing state.
	procs []*Proc
}

// recentNamesSize bounds the livelock diagnostic ring.
const recentNamesSize = 8

// New returns a Scheduler whose clock reads zero and whose deterministic
// random source is seeded with seed.
func New(seed int64) *Scheduler {
	return &Scheduler{seed: seed}
}

// Now reports the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Rand returns the scheduler's deterministic random source. It must only
// be used from managed procs or timer callbacks so that draws happen in a
// deterministic order. The source is built on the first call: a
// fault-free simulation never draws, and seeding one costs about 5 KB.
func (s *Scheduler) Rand() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.seed))
	}
	return s.rng
}

// Go spawns fn as a managed proc named name and schedules it to run. It
// may be called before Run or from inside another managed proc.
func (s *Scheduler) Go(name string, fn func()) *Proc {
	if s.closed {
		panic("sim: Go on a closed scheduler: " + name)
	}
	var w *worker
	if n := len(s.idle); n > 0 {
		w = s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
	} else {
		w = newWorker()
	}
	s.nextProcID++
	p := &Proc{
		s:    s,
		id:   s.nextProcID,
		name: name,
		w:    w,
		slot: len(s.procs),
	}
	w.p, w.fn = p, fn
	s.procs = append(s.procs, p)
	s.live++
	s.pushRunq(p)
	return p
}

// Spawned reports how many procs Go has started so far.
func (s *Scheduler) Spawned() int64 { return s.nextProcID }

// releaseIdle ends the coroutines of the idle workers.
func (s *Scheduler) releaseIdle() {
	for i, w := range s.idle {
		w.stop()
		s.idle[i] = nil
	}
	s.idle = s.idle[:0]
}

// Close ends the simulation for good: it unwinds every unfinished proc
// and releases everything the scheduler holds, so that nothing it ran
// pins the rig it ran on. Procs are taken newest entry of the proc list
// first. A proc that has run is parked somewhere; its park panics with a
// private value (unwind) that only the worker's top frame recovers, so
// its deferred calls run, on its own stack, with the proc current — a
// deferred call that blocks gets the same panic again, and one that
// wakes a proc already unwound is ignored. A proc that was spawned and never
// dispatched never runs. Then the idle workers, the run queue and the
// timers go. Close is idempotent; Go and Run on a closed scheduler
// panic. It must not be called from a proc or a callback of a running
// scheduler.
func (s *Scheduler) Close() {
	if s.closed {
		return
	}
	if s.running {
		panic("sim: Close called from inside Run")
	}
	s.closed = true
	for n := len(s.procs); n > 0; n = len(s.procs) {
		p := s.procs[n-1]
		s.cur = p
		p.w.stop()
		s.cur = nil
		if !p.done { // never dispatched
			s.finish(p)
		}
	}
	s.releaseIdle()
	s.procs, s.idle, s.runq, s.runqHead = nil, nil, nil, 0
	s.timers, s.freeTimers, s.cancelledTimers = nil, nil, 0
}

// Task is a run-to-completion activity: a named function the scheduler
// loop calls inline when the task's run-queue entry is dispatched. It
// takes the run-queue slot a proc parked on a Cond would take when
// signalled, without the coroutine switch — the model of a device that
// is a self-driven state machine (a NIC engine), not a thread.
//
// The function runs with no current proc, so it must not block: Sleep,
// Yield and Cond.Wait panic inside it, as they do in an AfterFunc
// callback. It may do everything else — signal, spawn, arm timers, send
// frames, wake tasks (itself included, which is a no-op) — and must
// loop over its own input until it is empty, because a Wake that
// arrives while it runs is dropped.
type Task struct {
	entry  Proc // the run-queue entry; it never parks and has no worker
	fn     func()
	queued bool // on the run queue or running
}

// NewTask creates a task. It does not run until Wake is called.
func (s *Scheduler) NewTask(name string, fn func()) *Task {
	t := &Task{fn: fn}
	t.entry = Proc{s: s, name: name, task: t}
	return t
}

// Wake queues the task behind the procs that are already runnable —
// where Cond.Signal queues a waiter. It is a no-op while the task is
// queued or running, as Signal is when nobody waits.
func (t *Task) Wake() {
	if t.queued {
		return
	}
	t.queued = true
	t.entry.s.pushRunq(&t.entry)
}

// Run executes managed procs until no proc is runnable and no timer is
// pending. It panics if live procs remain blocked with nothing scheduled
// to wake them (a simulation deadlock), identifying the stuck procs.
func (s *Scheduler) Run() {
	s.deadlockFatal = true
	defer func() { s.deadlockFatal = false }()
	s.runWhile(func() bool { return true })
}

// RunFor executes like Run but stops once the virtual clock would advance
// past the given horizon; procs parked beyond the horizon stay parked and
// the clock is left at the horizon.
func (s *Scheduler) RunFor(d time.Duration) {
	deadline := s.now + d
	s.runWhile(func() bool {
		if s.runqLen() > 0 {
			return true
		}
		// The loop has settled the heap: the top's deadline is real.
		return s.timers[0].when <= deadline
	})
	if s.now < deadline && s.runqLen() == 0 {
		s.now = deadline
	}
}

// LiveBlocked reports the number of procs that are alive but not
// runnable and have no pending wake-up — the procs a deadlock report
// would name.
func (s *Scheduler) LiveBlocked() int {
	if s.live == 0 {
		return 0
	}
	n := 0
	wakeable := s.wakeableSet()
	for _, p := range s.procs {
		if p.parked && !wakeable[p] {
			n++
		}
	}
	return n
}

// Stop makes the current Run call return after the running proc next
// parks. Procs and timers are left in place; Run may be called again.
func (s *Scheduler) Stop() { s.stopped = true }

func (s *Scheduler) runWhile(cond func() bool) {
	if s.closed {
		panic("sim: Run on a closed scheduler")
	}
	s.running = true
	defer func() {
		s.running = false
		s.releaseIdle()
	}()
	s.stopped = false
	for !s.stopped {
		if s.runqLen() == 0 {
			if !s.settleTimers() {
				if s.live > 0 && s.deadlockFatal {
					panic("sim: deadlock: " + s.blockedReport())
				}
				return
			}
			if !cond() {
				return
			}
			s.fireNextTimers()
			continue
		}
		if !cond() {
			return
		}
		p := s.popRunq()
		s.sameInstant++
		if s.sameInstant > sameInstantLimit {
			panic(fmt.Sprintf("sim: livelock: %d dispatches at t=%v without the clock advancing; recent procs: %v",
				s.sameInstant, s.now, s.recentNameList()))
		}
		s.recentNames[s.recentHead] = p.name
		s.recentHead = (s.recentHead + 1) % recentNamesSize
		if s.recentLen < recentNamesSize {
			s.recentLen++
		}
		s.dispatch(p)
	}
}

// recentNameList renders the livelock ring oldest-first.
func (s *Scheduler) recentNameList() []string {
	out := make([]string, 0, s.recentLen)
	start := (s.recentHead - s.recentLen + recentNamesSize) % recentNamesSize
	for i := 0; i < s.recentLen; i++ {
		out = append(out, s.recentNames[(start+i)%recentNamesSize])
	}
	return out
}

// --- Run queue ------------------------------------------------------------

// runqLen reports the number of runnable procs.
func (s *Scheduler) runqLen() int { return len(s.runq) - s.runqHead }

func (s *Scheduler) pushRunq(p *Proc) { s.runq = append(s.runq, p) }

func (s *Scheduler) popRunq() *Proc {
	p := s.runq[s.runqHead]
	s.runq[s.runqHead] = nil
	s.runqHead++
	if s.runqHead == len(s.runq) {
		s.runq = s.runq[:0]
		s.runqHead = 0
	} else if s.runqHead > 1024 && s.runqHead > len(s.runq)/2 {
		// Slide the live tail down so a never-empty queue cannot grow
		// without bound.
		n := copy(s.runq, s.runq[s.runqHead:])
		for i := n; i < len(s.runq); i++ {
			s.runq[i] = nil
		}
		s.runq = s.runq[:n]
		s.runqHead = 0
	}
	return p
}

// sameInstantLimit bounds dispatches at one virtual instant; a genuine
// workload never needs millions of zero-time steps, so exceeding it
// indicates two procs readying each other in a cycle.
const sameInstantLimit = 2_000_000

// dispatch switches into p's coroutine and returns when it parks or
// exits; a task's entry runs to completion on the loop itself.
func (s *Scheduler) dispatch(p *Proc) {
	if t := p.task; t != nil {
		t.fn()
		t.queued = false
		return
	}
	s.cur = p
	p.w.next()
	s.cur = nil
}

// settleTimers drops cancelled entries from the top of the heap (an
// empty lane's slot among them) and re-keys the slot of a lane whose
// head moved on until the top is a live timer queued under its
// own deadline, and reports whether there is one. An entry's queued key
// never exceeds its timer's key, so once the top is settled nothing
// below it fires earlier. The loop settles before it advances the clock
// to the top's deadline or decides by it: the clock must not move to a
// deadline nothing fires at.
func (s *Scheduler) settleTimers() bool {
	for len(s.timers) > 0 {
		if s.timers[0].settled() {
			return true
		}
		s.fixTop()
	}
	return false
}

// fixTop drops the top entry if its timer is cancelled and moves it to
// the timer's own key otherwise; another entry may be on top afterwards.
func (s *Scheduler) fixTop() {
	e := &s.timers[0]
	if tm := e.tm; tm.cancelled {
		s.timers.pop()
		s.cancelledTimers--
		s.dropTimer(tm)
	} else {
		e.when, e.seq = tm.when, tm.seq
		s.timers.down(0)
	}
}

// fireNextTimers advances the clock to the earliest timer deadline and
// fires every timer due at that instant, in scheduling order; a lane's
// slot fires the lane's head. The caller has settled the heap.
func (s *Scheduler) fireNextTimers() {
	t := s.timers[0].when
	if t < s.now {
		t = s.now // timers scheduled "in the past" fire now
	}
	if t > s.now {
		s.sameInstant = 0
		s.recentHead = 0
		s.recentLen = 0
	}
	s.now = t
	// A queued key is a lower bound, so a top queued after now ends the
	// instant whether or not it is settled.
	for len(s.timers) > 0 && s.timers[0].when <= s.now {
		if !s.timers[0].settled() {
			s.fixTop()
			continue
		}
		if l := s.timers[0].tm.lane; l != nil {
			l.fireHead()
			continue
		}
		tm := s.timers.pop().tm
		// Copy what the fire needs, then recycle: the callback itself may
		// schedule new timers (and will happily reuse this struct).
		fn, fnArg, arg, p := tm.fn, tm.fnArg, tm.arg, tm.p
		s.putTimer(tm)
		switch {
		case fn != nil:
			fn()
		case fnArg != nil:
			fnArg(arg)
		default:
			s.ready(p)
		}
	}
}

// ready marks p runnable.
func (s *Scheduler) ready(p *Proc) {
	if p.done {
		if s.closed {
			return // a deferred call of a proc Close is unwinding
		}
		panic("sim: waking finished proc " + p.name)
	}
	s.pushRunq(p)
}

// --- Timers ---------------------------------------------------------------

// getTimer takes a timer from the free list or allocates one.
func (s *Scheduler) getTimer() *timer {
	if n := len(s.freeTimers); n > 0 {
		tm := s.freeTimers[n-1]
		s.freeTimers[n-1] = nil
		s.freeTimers = s.freeTimers[:n-1]
		return tm
	}
	return &timer{s: s}
}

// dropTimer disposes of a cancelled timer taken out of the heap: a
// lane's slot goes back to its lane, any other timer to the free list.
func (s *Scheduler) dropTimer(tm *timer) {
	if l := tm.lane; l != nil {
		tm.cancelled = false
		l.queued = false
		return
	}
	s.putTimer(tm)
}

// pushTimer queues a heap entry.
func (s *Scheduler) pushTimer(e timerEntry) {
	s.timers.push(e)
	s.timersPeak = max(s.timersPeak, len(s.timers))
}

// putTimer recycles a timer popped from the heap. Bumping gen makes
// every outstanding Timer handle to it inert.
func (s *Scheduler) putTimer(tm *timer) {
	tm.gen++
	tm.p = nil
	tm.fn = nil
	tm.fnArg = nil
	tm.arg = nil
	tm.cancelled = false
	s.freeTimers = append(s.freeTimers, tm)
}

// after registers a timer at now+d. Exactly one of p, fn or fnArg is
// set: p is a parked proc to wake, fn/fnArg an inline callback.
func (s *Scheduler) after(d time.Duration, p *Proc, fn func(), fnArg func(any), arg any) *timer {
	if d < 0 {
		d = 0
	}
	s.seq++
	tm := s.getTimer()
	tm.when = s.now + d
	tm.seq = s.seq
	tm.p = p
	tm.fn = fn
	tm.fnArg = fnArg
	tm.arg = arg
	s.pushTimer(tm.entry())
	return tm
}

// AfterFunc schedules fn to run on the scheduler loop at now+d. fn must
// not block; it typically enqueues data and signals a Cond. It returns a
// handle whose Cancel method stops an unfired timer.
func (s *Scheduler) AfterFunc(d time.Duration, fn func()) Timer {
	tm := s.after(d, nil, fn, nil, nil)
	return Timer{tm: tm, gen: tm.gen}
}

// AfterFuncArg is AfterFunc for a shared callback with a per-event
// argument. Passing a pointer argument through a package-level callback
// avoids allocating a fresh closure per event — the shape of per-packet
// work like fabric deliveries.
func (s *Scheduler) AfterFuncArg(d time.Duration, fn func(any), arg any) Timer {
	tm := s.after(d, nil, nil, fn, arg)
	return Timer{tm: tm, gen: tm.gen}
}

// wakeableSet collects the procs that have a pending wake-up: they are
// runnable, or a live timer will ready them.
func (s *Scheduler) wakeableSet() map[*Proc]bool {
	wakeable := make(map[*Proc]bool, s.runqLen())
	for _, p := range s.runq[s.runqHead:] {
		wakeable[p] = true
	}
	for _, e := range s.timers {
		if e.tm.p != nil && !e.tm.cancelled {
			wakeable[e.tm.p] = true
		}
	}
	return wakeable
}

// blockedReport describes the procs that are alive but not runnable, for
// deadlock diagnostics: each stuck proc's name with the site it parked
// at ("wait cq@dst", "sleep", …), plus the ring of most recently
// dispatched procs — the same diagnostic the livelock path reports — so
// the report shows both who is stuck and who ran last.
func (s *Scheduler) blockedReport() string {
	wakeable := s.wakeableSet()
	var names []string
	for _, p := range s.procs {
		if p.parked && !wakeable[p] {
			names = append(names, fmt.Sprintf("%s (blocked at: %s)", p.name, p.blockedAt()))
		}
	}
	sort.Strings(names)
	return fmt.Sprintf("%d proc(s) blocked forever at t=%v: %v; recently dispatched: %v",
		len(names), s.now, names, s.recentNameList())
}

// Timer is a handle to a pending AfterFunc callback. The zero value is
// inert: Cancel on it reports false. Handles are values; copying one
// copies the (timer, generation) pair, and a handle outlives its timer
// harmlessly — once the timer fires or is compacted away, the struct is
// recycled under a new generation and old handles no longer match.
type Timer struct {
	tm  *timer
	gen uint64
}

// Cancel stops the timer if it has not fired. It reports whether the
// cancellation prevented the callback. The timer stays in the heap and
// is dropped lazily when it surfaces at pop — or in one compaction pass
// if cancelled entries come to outnumber live ones (one-shot timers
// that are mostly cancelled, like call timeouts; timers re-armed over
// and over ride a Lane and leave none).
func (t Timer) Cancel() bool {
	tm := t.tm
	if tm == nil || tm.gen != t.gen || tm.cancelled {
		return false
	}
	tm.cancelled = true
	tm.s.cancelledTimers++
	tm.s.maybeCompact()
	return true
}

// maybeCompact compacts the heap once cancelled entries outnumber live
// ones.
func (s *Scheduler) maybeCompact() {
	if s.cancelledTimers > len(s.timers)/2 && len(s.timers) >= compactMinTimers {
		s.compactTimers()
	}
}

// compactMinTimers is the heap size below which compaction is not worth
// the pass; lazy pop-side dropping handles small heaps fine.
const compactMinTimers = 64

// compactTimers removes every cancelled timer from the heap in one pass
// and restores the heap invariant. Relative order of live timers is
// fully determined by (when, seq), so compaction cannot reorder fires.
func (s *Scheduler) compactTimers() {
	live := s.timers[:0]
	for _, e := range s.timers {
		if tm := e.tm; tm.cancelled {
			s.cancelledTimers--
			s.dropTimer(tm)
		} else {
			live = append(live, tm.entry())
		}
	}
	clear(s.timers[len(live):])
	s.timers = live
	s.timers.init()
}

// TimerHeapLen reports the number of entries (live plus
// not-yet-collected cancelled) in the timer heap — a test hook for the
// cancellation bookkeeping. A lane is one entry.
func (s *Scheduler) TimerHeapLen() int { return len(s.timers) }

// TimerHeapPeak reports the most entries the timer heap has held — a
// test hook for what the heap grows with.
func (s *Scheduler) TimerHeapPeak() int { return s.timersPeak }

// timer is one scheduled wake-up or callback, or a lane's heap slot.
// when and seq are its deadline and its place in the scheduling order
// (a lane's slot: its head's); when a lane's head moves on, they run
// ahead of the key the slot is queued under until settleTimers catches
// the entry up.
type timer struct {
	s         *Scheduler
	when      time.Duration
	seq       uint64
	p         *Proc     // proc to wake, or
	fn        func()    // inline callback, or
	fnArg     func(any) // shared callback taking arg
	arg       any
	cancelled bool
	gen       uint64 // bumped on recycle; stale handles check it
	lane      *Lane  // set on a lane's slot, which fires the lane's head
}

// timerEntry is a heap slot: the key by value, so that sifting compares
// without following the pointer.
type timerEntry struct {
	when time.Duration
	seq  uint64
	tm   *timer
}

// settled reports whether the entry's timer is live and still has the
// key the entry is queued under.
func (e timerEntry) settled() bool { return !e.tm.cancelled && e.seq == e.tm.seq }

// entry is the slot tm is queued in under its current key.
func (tm *timer) entry() timerEntry { return timerEntry{when: tm.when, seq: tm.seq, tm: tm} }

func (a timerEntry) less(b timerEntry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// timerHeap is a 4-ary min-heap ordered by (when, seq): the children of
// slot i are slots 4i+1 … 4i+4. seq is unique, so the order is total and
// the pop sequence does not depend on how the heap is laid out.
type timerHeap []timerEntry

func (h *timerHeap) push(e timerEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *timerHeap) pop() timerEntry {
	old := *h
	n := len(old) - 1
	e := old[0]
	old[0] = old[n]
	old[n] = timerEntry{}
	*h = old[:n]
	h.down(0)
	return e
}

// init establishes the heap invariant over arbitrary contents.
func (h timerHeap) init() {
	for i := (len(h) - 2) / 4; i >= 0; i-- {
		h.down(i)
	}
}

func (h timerHeap) up(j int) {
	e := h[j]
	for j > 0 {
		i := (j - 1) / 4 // parent
		if !e.less(h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = e
}

func (h timerHeap) down(i int) {
	n := len(h)
	if i >= n {
		return
	}
	e := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		j := first // least child
		for c := first + 1; c < min(first+4, n); c++ {
			if h[c].less(h[j]) {
				j = c
			}
		}
		if !h[j].less(e) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = e
}

// BlockedReport describes procs that are alive but not currently
// runnable, with their park reasons — a diagnostic for stalled
// simulations.
func (s *Scheduler) BlockedReport() string { return s.blockedReport() }
