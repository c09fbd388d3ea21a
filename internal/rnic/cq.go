package rnic

import (
	"encoding/binary"

	"migrrdma/internal/fifo"
	"migrrdma/internal/mem"
	"migrrdma/internal/metrics"
	"migrrdma/internal/sim"
)

// CQ is a completion queue. Entries accumulate in device-owned storage
// until software polls them; an optional completion channel delivers
// interrupt-style events when the CQ is armed (ibv_req_notify_cq).
type CQ struct {
	Handle  uint32
	dev     *Device
	cap     int
	queue   []CQE
	pollBuf PollBuf
	// Overrun records that a completion was dropped because the CQ was
	// full — a fatal programming error on real hardware too.
	Overrun bool

	armed bool
	comp  *CompChannel

	// Shadow ring: the library maps the CQ's entry ring in process
	// memory and the device DMA-writes each CQE slot, so completion
	// traffic dirties application pages exactly as on real hardware.
	ringAS   *mem.AddressSpace
	ringAddr mem.Addr
	ringSeq  int

	// wake is broadcast on every push: the cond of the guest-library CQ
	// handle attached to this CQ (SetWake), or one WaitNonEmpty makes.
	wake *sim.Cond
}

// SetWake makes every completion pushed from now on broadcast c (nil
// stops it). The guest library's CQ handle owns c for its whole life
// and points whichever device CQ it is attached to at it.
func (cq *CQ) SetWake(c *sim.Cond) { cq.wake = c }

// SetShadowRing points the CQ's DMA target at a library-mapped ring of
// cap 64-byte slots. Passing nil detaches it. The address space is the
// concrete type, not an interface, so that the 64-byte slot push builds
// stays on the engine's stack.
func (cq *CQ) SetShadowRing(as *mem.AddressSpace, addr mem.Addr) {
	cq.ringAS = as
	cq.ringAddr = addr
}

// cqeSlotSize is the in-memory size of one completion entry.
const cqeSlotSize = 64

// CreateCQ creates a completion queue with the given capacity, optionally
// bound to a completion channel.
func (d *Device) CreateCQ(capacity int, comp *CompChannel) *CQ {
	d.sched.Sleep(createCQLat)
	cq := &CQ{
		Handle: d.allocID(),
		dev:    d,
		cap:    capacity,
		comp:   comp,
		queue:  make([]CQE, 0, ringCap(capacity)),
	}
	d.cqs[cq.Handle] = cq
	return cq
}

// DestroyCQ releases the CQ.
func (d *Device) DestroyCQ(cq *CQ) {
	d.sched.Sleep(destroyLat)
	delete(d.cqs, cq.Handle)
}

// push appends a completion, firing an event if the CQ is armed.
func (cq *CQ) push(e CQE) {
	if len(cq.queue) >= cq.cap {
		cq.Overrun = true
		return
	}
	cq.queue = append(cq.queue, e)
	if qp, ok := cq.dev.lookupQP(e.QPN); ok {
		qp.mCQEs.Inc()
	}
	cq.dev.reg.Emit(metrics.Event{Kind: "cqe", Node: cq.dev.node, QPN: e.QPN, Seq: e.WRID,
		Op: uint8(e.Opcode), Status: uint8(e.Status)})
	if cq.ringAS != nil {
		var slot [cqeSlotSize]byte
		binary.LittleEndian.PutUint64(slot[:], e.WRID)
		binary.LittleEndian.PutUint32(slot[8:], e.QPN)
		slot[12] = byte(e.Status)
		_ = cq.ringAS.Write(cq.ringAddr+mem.Addr((cq.ringSeq%cq.cap)*cqeSlotSize), slot[:])
		cq.ringSeq++
	}
	if cq.wake != nil {
		cq.wake.Broadcast()
	}
	if cq.armed && cq.comp != nil {
		cq.armed = false
		cq.comp.deliver(cq)
	}
}

// PollInto removes up to len(dst) completions into the caller's buffer
// and reports how many it wrote (non-blocking, like ibv_poll_cq with a
// caller-owned ibv_wc array).
func (cq *CQ) PollInto(dst []CQE) int {
	n := copy(dst, cq.queue)
	if n == 0 {
		return 0
	}
	// Shift the remainder down so the ring keeps its capacity (pollers
	// usually drain the CQ, making the shift free).
	rest := copy(cq.queue, cq.queue[n:])
	cq.queue = cq.queue[:rest]
	return n
}

// PollBuf is the buffer a CQ lends out from Poll(max): the slice a Poll
// returns is valid until the next Poll on that CQ, so Poll suits a CQ
// with one poller that handles a batch before it polls again. Anything
// else polls into a buffer of its own with PollInto.
type PollBuf []CQE

// Sized returns the buffer cut to max entries, clamped to [0, limit].
func (b *PollBuf) Sized(max, limit int) []CQE {
	max = min(max, limit)
	if max <= 0 {
		return nil
	}
	if cap(*b) < max {
		*b = make([]CQE, max)
	}
	return (*b)[:max]
}

// Poll removes and returns up to max completions in the CQ's PollBuf.
func (cq *CQ) Poll(max int) []CQE {
	buf := cq.pollBuf.Sized(max, cq.cap)
	return buf[:cq.PollInto(buf)]
}

// Len reports the number of pending completions.
func (cq *CQ) Len() int { return len(cq.queue) }

// WaitNonEmpty parks the calling proc until the CQ has entries. It is a
// simulation convenience for busy-poll loops (real code would spin).
func (cq *CQ) WaitNonEmpty() {
	if cq.wake == nil {
		cq.wake = sim.NewCond(cq.dev.sched, "cq-wait")
	}
	for len(cq.queue) == 0 {
		cq.wake.Wait()
	}
}

// ReqNotify arms the CQ: the next completion pushes an event to the
// completion channel (ibv_req_notify_cq).
func (cq *CQ) ReqNotify() { cq.armed = true }

// CompChannel is a completion event channel (ibv_comp_channel): an
// interrupt-style notification path multiplexing events from any number
// of CQs.
type CompChannel struct {
	events fifo.Queue[*CQ]
	wake   *sim.Cond
}

// compChannelCap bounds the events a completion channel holds.
const compChannelCap = 1024

// CreateCompChannel creates a completion channel.
func (d *Device) CreateCompChannel() *CompChannel { return &CompChannel{} }

// SetWake makes every event delivered from now on broadcast w (nil
// stops it), as CQ.SetWake does for completions.
func (c *CompChannel) SetWake(w *sim.Cond) { c.wake = w }

func (c *CompChannel) deliver(cq *CQ) {
	// Channel full means the consumer is hopelessly behind; events are
	// edge-triggered so dropping is safe (the CQ stays readable).
	if c.events.Len() < compChannelCap {
		c.events.Push(cq)
	}
	if c.wake != nil {
		c.wake.Broadcast()
	}
}

// TryGet returns the oldest pending event without blocking
// (ibv_get_cq_event on a non-blocking channel).
func (c *CompChannel) TryGet() (*CQ, bool) {
	if c.events.Len() == 0 {
		return nil, false
	}
	return c.events.Pop(), true
}
