package sim

// Chan is a FIFO channel between managed procs with the blocking
// semantics of a buffered Go channel. A capacity of zero gives rendezvous
// behaviour: Send blocks until a receiver takes the value.
type Chan[T any] struct {
	s      *Scheduler
	name   string
	buf    []T
	cap    int
	sendq  []*chanWaiter[T] // senders blocked because the buffer is full
	recvq  []*chanWaiter[T] // receivers blocked because the buffer is empty
	closed bool
}

type chanWaiter[T any] struct {
	p   *Proc
	val T    // value being sent (senders) or received (receivers)
	ok  bool // for receivers: whether a value was delivered
}

// NewChan creates a channel with the given buffer capacity.
func NewChan[T any](s *Scheduler, name string, capacity int) *Chan[T] {
	if capacity < 0 {
		panic("sim: negative channel capacity")
	}
	return &Chan[T]{s: s, name: name, cap: capacity}
}

// Len reports the number of buffered values.
func (c *Chan[T]) Len() int { return len(c.buf) }

// Send delivers v, blocking while the buffer is full (or, for a
// rendezvous channel, until a receiver arrives). Sending on a closed
// channel panics, as with native channels.
func (c *Chan[T]) Send(v T) {
	if c.closed {
		panic("sim: send on closed channel " + c.name)
	}
	// Direct hand-off to a waiting receiver.
	if len(c.recvq) > 0 {
		w := c.recvq[0]
		c.recvq = c.recvq[1:]
		w.val, w.ok = v, true
		c.s.ready(w.p)
		return
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return
	}
	// Block until a receiver makes room or takes the value directly.
	p := c.s.current("Chan.Send")
	w := &chanWaiter[T]{p: p, val: v}
	c.sendq = append(c.sendq, w)
	p.park("send", c.name)
	if c.closed && !w.ok {
		panic("sim: channel " + c.name + " closed while sending")
	}
}

// TrySend delivers v without blocking, reporting whether it was accepted.
func (c *Chan[T]) TrySend(v T) bool {
	if c.closed {
		panic("sim: send on closed channel " + c.name)
	}
	if len(c.recvq) > 0 {
		w := c.recvq[0]
		c.recvq = c.recvq[1:]
		w.val, w.ok = v, true
		c.s.ready(w.p)
		return true
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return true
	}
	return false
}

// Recv takes the next value, blocking while the channel is empty. The
// second result is false when the channel is closed and drained.
func (c *Chan[T]) Recv() (T, bool) {
	if v, ok, ready := c.tryRecvLocked(); ready {
		return v, ok
	}
	p := c.s.current("Chan.Recv")
	w := &chanWaiter[T]{p: p}
	c.recvq = append(c.recvq, w)
	p.park("recv", c.name)
	return w.val, w.ok
}

// TryRecv takes a value without blocking. ok is false when nothing was
// available (including the closed-and-drained case).
func (c *Chan[T]) TryRecv() (T, bool) {
	v, ok, _ := c.tryRecvLocked()
	return v, ok
}

// tryRecvLocked attempts a non-blocking receive. ready reports whether
// the receive completed (with a value, or definitively empty-and-closed).
func (c *Chan[T]) tryRecvLocked() (v T, ok, ready bool) {
	if len(c.buf) > 0 {
		v = c.buf[0]
		c.buf = c.buf[1:]
		// A blocked sender can now place its value into the buffer.
		if len(c.sendq) > 0 {
			w := c.sendq[0]
			c.sendq = c.sendq[1:]
			c.buf = append(c.buf, w.val)
			w.ok = true
			c.s.ready(w.p)
		}
		return v, true, true
	}
	// Rendezvous: take directly from a blocked sender.
	if len(c.sendq) > 0 {
		w := c.sendq[0]
		c.sendq = c.sendq[1:]
		w.ok = true
		c.s.ready(w.p)
		return w.val, true, true
	}
	if c.closed {
		return v, false, true
	}
	return v, false, false
}

// Close closes the channel, waking blocked receivers with ok=false.
// Blocked senders panic, as with native channels.
func (c *Chan[T]) Close() {
	if c.closed {
		panic("sim: close of closed channel " + c.name)
	}
	c.closed = true
	for _, w := range c.recvq {
		w.ok = false
		c.s.ready(w.p)
	}
	c.recvq = nil
	for _, w := range c.sendq {
		c.s.ready(w.p) // they will observe closed and panic
	}
	c.sendq = nil
}
