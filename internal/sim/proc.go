package sim

import "time"

// Proc is a managed goroutine scheduled cooperatively by a Scheduler.
type Proc struct {
	s         *Scheduler
	id        int64
	name      string
	resume    chan struct{}
	done      bool
	daemon    bool
	blockedOn string // human-readable reason, for deadlock reports
	parked    bool   // inside park, for deadlock reports
	slot      int    // index in the scheduler's proc list

	// Cond.WaitTimeout state, read by the timeout callback.
	waitCond *Cond
	timedOut bool
}

// Name returns the name the proc was spawned with.
func (p *Proc) Name() string { return p.name }

// main is the goroutine body wrapping the user function.
func (p *Proc) main(fn func()) {
	<-p.resume // wait for first dispatch
	defer func() {
		p.done = true
		p.s.forget(p)
		if !p.daemon {
			p.s.live--
		}
		// Hand control back to the scheduler loop without expecting a
		// further resume.
		p.s.yielded <- struct{}{}
	}()
	fn()
}

// park blocks the proc until the scheduler resumes it. The caller must
// have arranged for something (a timer, a cond signal, a channel op) to
// eventually mark the proc runnable.
func (p *Proc) park(reason string) {
	p.blockedOn = reason
	p.parked = true
	DebugParks.Add(1)
	if DebugTrace.Load() {
		DebugLastPark.Store(p.name + ":" + reason)
	}
	p.s.yielded <- struct{}{}
	<-p.resume
	p.parked = false
	p.blockedOn = ""
}

// forget drops a finished proc from the proc list (swap-remove: the
// deadlock report sorts what it prints, so list order carries nothing).
func (s *Scheduler) forget(p *Proc) {
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
	p.park("sleep")
}

// Yield requeues the current proc behind other runnable procs, giving
// them a chance to run at the same virtual instant.
func (s *Scheduler) Yield() {
	p := s.current("Yield")
	s.ready(p)
	p.park("yield")
}
