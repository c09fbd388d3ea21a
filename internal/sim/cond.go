package sim

import "time"

// Cond is a condition variable for managed procs. Because the scheduler
// is cooperative (exactly one proc runs at a time) there is no associated
// lock: the running proc has exclusive access to shared state by
// construction, and Wait atomically parks and releases the CPU.
type Cond struct {
	s       *Scheduler
	name    string
	waiters []*Proc
	one     [1]*Proc // backs waiters until a second proc waits
}

// NewCond creates a condition variable.
func NewCond(s *Scheduler, name string) *Cond {
	c := &Cond{}
	c.Init(s, name)
	return c
}

// Init readies a Cond embedded in another struct (a per-call completion,
// say) without allocating; the Cond must not be copied afterwards.
func (c *Cond) Init(s *Scheduler, name string) {
	c.s, c.name = s, name
	c.waiters = c.one[:0]
}

// Wait parks the current proc until Signal or Broadcast wakes it. As with
// sync.Cond, callers must re-check their predicate in a loop.
func (c *Cond) Wait() {
	p := c.s.current("Cond.Wait")
	c.waiters = append(c.waiters, p)
	p.park("wait", c.name)
}

// WaitTimeout parks the current proc until woken or until d elapses. It
// reports whether the proc was woken by Signal/Broadcast (true) rather
// than by the timeout (false).
func (c *Cond) WaitTimeout(d time.Duration) bool {
	p := c.s.current("Cond.WaitTimeout")
	c.waiters = append(c.waiters, p)
	p.waitCond, p.timedOut = c, false
	t := c.s.AfterFuncArg(d, condTimeout, p)
	p.park("wait", c.name)
	p.waitCond = nil
	if p.timedOut {
		return false
	}
	t.Cancel()
	return true
}

// condTimeout is the shared WaitTimeout timer callback; the waiting proc
// is its argument, so arming a wait allocates no closure.
func condTimeout(arg any) {
	p := arg.(*Proc)
	c := p.waitCond
	// Still waiting? Remove from the queue and wake with timeout.
	for i, w := range c.waiters {
		if w == p {
			n := i + copy(c.waiters[i:], c.waiters[i+1:])
			c.waiters[n] = nil
			c.waiters = c.waiters[:n]
			p.timedOut = true
			c.s.ready(p)
			return
		}
	}
}

// Signal wakes one waiting proc, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	// Shift down rather than re-slice so the backing array's capacity is
	// kept for future waiters.
	n := copy(c.waiters, c.waiters[1:])
	c.waiters[n] = nil
	c.waiters = c.waiters[:n]
	c.s.ready(p)
}

// Broadcast wakes every waiting proc.
func (c *Cond) Broadcast() {
	for i, p := range c.waiters {
		c.s.ready(p)
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
}

// WaitGroup waits for a collection of procs to finish, mirroring
// sync.WaitGroup for managed procs.
type WaitGroup struct {
	n    int
	cond *Cond
}

// NewWaitGroup creates a WaitGroup.
func NewWaitGroup(s *Scheduler, name string) *WaitGroup {
	return &WaitGroup{cond: NewCond(s, name)}
}

// Add adds delta to the counter.
func (wg *WaitGroup) Add(delta int) {
	wg.n += delta
	if wg.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.n == 0 {
		wg.cond.Broadcast()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait parks until the counter reaches zero.
func (wg *WaitGroup) Wait() {
	for wg.n > 0 {
		wg.cond.Wait()
	}
}
