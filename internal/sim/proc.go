package sim

import (
	"fmt"
	"runtime/debug"
	"time"
)

// Proc is a managed coroutine scheduled cooperatively by a Scheduler.
type Proc struct {
	s         *Scheduler
	id        int64
	name      string
	w         *worker // the coroutine that carries it
	task      *Task   // set on a task's run-queue entry, which has no worker
	done      bool
	blockedOp string // what the proc parked in ("sleep", "yield", "wait") and
	blockedOn string // on which Cond, for deadlock reports
	parked    bool   // inside park, for deadlock reports
	slot      int    // index in the scheduler's proc list

	// Cond.WaitTimeout state, read by the timeout callback.
	waitCond *Cond
	timedOut bool
}

// Name returns the name the proc was spawned with.
func (p *Proc) Name() string { return p.name }

// worker is a coroutine that carries managed procs, one after another:
// the scheduler loop switches into it with next, the proc it carries
// switches back with yield when it parks, and stop makes the pending (or
// next) yield return false. A proc whose function has returned hands its
// worker back to the scheduler's idle list, and the next Go takes it
// from there instead of making a coroutine. The Proc itself is never
// reused, so a recycled worker runs under a fresh ID and name and a
// stale *Proc stays done.
//
// The three functions come from newWorker (coro.go), the one place that
// makes a coroutine.
type worker struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc // the proc to run at the next switch in
	fn    func()
}

// unwind is the value park panics with once the worker has been stopped:
// the panic runs the proc's deferred calls on its way up to run's
// deferred function, the only place that recovers it.
type unwind struct{}

// loop is the coroutine's body: one proc per switch in, until the proc
// does not return (it panicked, exited or was unwound) or the scheduler
// stops the idle worker.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for w.run() && yield(struct{}{}) {
	}
}

// run executes the assigned proc's function and reports whether it
// returned; only then is the worker idle and reusable. The other ways
// out of a proc all end its coroutine. Close's unwind stops here. A
// panic leaves the coroutine as a new panic value that names the proc
// and carries its stack, because the coroutine machinery re-raises it
// from next, on the goroutine that called Run, where the proc's frames
// are gone. A runtime.Goexit (t.Fatal inside a proc) cannot be stopped
// and becomes a Goexit of that goroutine the same way.
func (w *worker) run() (returned bool) {
	p, fn := w.p, w.fn
	w.p, w.fn = nil, nil
	defer func() {
		s := p.s
		s.finish(p)
		if returned {
			s.idle = append(s.idle, w)
			return
		}
		s.cur = nil // dispatch does not get to
		if r := recover(); r != nil && r != (unwind{}) {
			panic(fmt.Sprintf("sim: proc %q panicked: %v\n\n%s", p.name, r, debug.Stack()))
		}
	}()
	fn()
	return true
}

// park switches back to the scheduler loop until it resumes the proc.
// Its callers are Sleep, Yield, Cond.Wait and Cond.WaitTimeout, each of
// which has arranged for something (a timer, the run queue, a cond
// signal) to eventually mark the proc runnable. On a scheduler that
// is being closed it does not return: it unwinds the proc instead, and
// does so again if a deferred call of the proc blocks again.
// op and on name the park site for diagnostics; they are joined only
// when a report is rendered, so parking builds no string.
func (p *Proc) park(op, on string) {
	p.blockedOp, p.blockedOn = op, on
	p.parked = true
	if !p.w.yield(struct{}{}) {
		panic(unwind{})
	}
	p.parked = false
	p.blockedOp, p.blockedOn = "", ""
}

// blockedAt renders the park site: "wait cq@dst", "sleep", "yield".
func (p *Proc) blockedAt() string {
	if p.blockedOn == "" {
		return p.blockedOp
	}
	return p.blockedOp + " " + p.blockedOn
}

// finish marks p done and drops it from the proc list (swap-remove: the
// deadlock report sorts what it prints, so list order carries nothing).
func (s *Scheduler) finish(p *Proc) {
	p.done = true
	s.live--
	last := s.procs[len(s.procs)-1]
	s.procs[p.slot] = last
	last.slot = p.slot
	s.procs[len(s.procs)-1] = nil
	s.procs = s.procs[:len(s.procs)-1]
}

// current returns the currently executing proc, panicking if called from
// outside a managed proc (e.g. from an AfterFunc callback or native
// goroutine), where blocking is not allowed.
func (s *Scheduler) current(op string) *Proc {
	if s.cur == nil {
		panic("sim: " + op + " called outside a managed proc")
	}
	return s.cur
}

// Sleep parks the current proc for d of virtual time.
func (s *Scheduler) Sleep(d time.Duration) {
	p := s.current("Sleep")
	s.after(d, p, nil, nil, nil)
	p.park("sleep", "")
}

// Yield requeues the current proc behind other runnable procs, giving
// them a chance to run at the same virtual instant.
func (s *Scheduler) Yield() {
	p := s.current("Yield")
	s.ready(p)
	p.park("yield", "")
}
