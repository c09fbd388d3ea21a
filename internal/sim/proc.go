package sim

import "time"

// Proc is a managed goroutine scheduled cooperatively by a Scheduler.
type Proc struct {
	s         *Scheduler
	id        int64
	name      string
	resume    chan struct{} // the carrying worker's channel
	task      *Task         // set on a task's run-queue entry, which has no goroutine
	done      bool
	daemon    bool
	blockedOp string // what the proc parked in ("wait", "recv", "sleep", …) and
	blockedOn string // on which Cond or Chan, for deadlock reports
	parked    bool   // inside park, for deadlock reports
	slot      int    // index in the scheduler's proc list

	// Cond.WaitTimeout state, read by the timeout callback.
	waitCond *Cond
	timedOut bool
}

// Name returns the name the proc was spawned with.
func (p *Proc) Name() string { return p.name }

// worker is a goroutine that carries managed procs, one after another:
// a proc whose function has returned hands its worker back to the
// scheduler's idle list, and the next Go takes it from there instead of
// starting a goroutine and making a resume channel. The Proc itself is
// never reused, so a recycled worker runs under a fresh ID and name and
// a stale *Proc stays done.
type worker struct {
	resume chan struct{}
	p      *Proc // the proc to run at the next resume
	fn     func()
}

// loop runs one proc per first dispatch until the scheduler releases
// the idle worker by closing its channel.
func (w *worker) loop() {
	for range w.resume {
		w.run()
	}
}

// run executes the assigned proc's function. A function that panics or
// calls runtime.Goexit still yields to the scheduler loop, but takes
// its goroutine with it: only a worker whose function returned is idle.
func (w *worker) run() {
	p, fn := w.p, w.fn
	w.p, w.fn = nil, nil
	returned := false
	defer func() {
		s := p.s
		p.done = true
		s.forget(p)
		if !p.daemon {
			s.live--
		}
		if returned {
			s.idle = append(s.idle, w)
		}
		// Hand control back to the scheduler loop without expecting a
		// further resume of this proc.
		s.yielded <- struct{}{}
	}()
	fn()
	returned = true
}

// park blocks the proc until the scheduler resumes it. The caller must
// have arranged for something (a timer, a cond signal, a channel op) to
// eventually mark the proc runnable.
// op and on name the park site for diagnostics; they are joined only
// when a report is rendered, so parking builds no string.
func (p *Proc) park(op, on string) {
	p.blockedOp, p.blockedOn = op, on
	p.parked = true
	DebugParks.Add(1)
	if DebugTrace.Load() {
		DebugLastPark.Store(p.name + ":" + p.blockedAt())
	}
	p.s.yielded <- struct{}{}
	<-p.resume
	p.parked = false
	p.blockedOp, p.blockedOn = "", ""
}

// blockedAt renders the park site: "wait cq@dst", "recv work", "sleep".
func (p *Proc) blockedAt() string {
	if p.blockedOn == "" {
		return p.blockedOp
	}
	return p.blockedOp + " " + p.blockedOn
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
	p.park("sleep", "")
}

// Yield requeues the current proc behind other runnable procs, giving
// them a chance to run at the same virtual instant.
func (s *Scheduler) Yield() {
	p := s.current("Yield")
	s.ready(p)
	p.park("yield", "")
}
