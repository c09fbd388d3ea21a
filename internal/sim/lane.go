package sim

import (
	"fmt"
	"time"
)

// Lane is a FIFO of timers whose deadlines never decrease: each entry is
// armed for no earlier an instant than the one armed on the lane before
// it, so the oldest entry is always the next to fire. The lane takes one
// heap slot, keyed by its oldest live entry, however many entries it
// holds — a port's frames in flight, a device's retransmission timers.
//
// An entry takes its place in the scheduling order when it is armed,
// exactly as AfterFuncArg would give it, so a simulation fires the same
// callbacks in the same order whether its timers ride a lane or each
// take a slot of their own. Every entry fires the lane's one callback
// with the argument it was armed with.
//
// A Lane lives inside its owner (a port, a device) and is readied by
// Init; it must not be copied afterwards.
type Lane struct {
	slot       timer // the lane's heap slot; its key is the head's
	fn         func(any)
	head, tail *LaneTimer
	last       time.Duration // deadline of the last arm
	queued     bool          // slot is in the heap (perhaps cancelled)
}

// LaneTimer is one entry of a lane. Its owner keeps it (in the frame or
// the queue pair it times) and arms it again and again; the zero value
// is disarmed.
type LaneTimer struct {
	when       time.Duration
	seq        uint64
	arg        any
	lane       *Lane // the lane it is armed on; nil when disarmed
	prev, next *LaneTimer
}

// Init readies a lane whose entries fire fn on s.
func (l *Lane) Init(s *Scheduler, fn func(any)) {
	l.slot = timer{s: s, lane: l}
	l.fn = fn
}

// Arm schedules the lane's callback with arg at now+d, taking the next
// place in the scheduling order. An armed e is disarmed first, so Arm
// is e.Cancel() followed by AfterFuncArg(d, fn, arg) in everything a
// simulation can observe; the re-armed entry moves to the lane's tail.
func (l *Lane) Arm(e *LaneTimer, d time.Duration, arg any) {
	s := l.slot.s
	if d < 0 {
		d = 0
	}
	when := s.now + d
	if when < l.last {
		panic(fmt.Sprintf("sim: lane armed for %v, before its last arm at %v", when, l.last))
	}
	if e.lane != nil {
		e.lane.remove(e)
	}
	s.seq++
	l.last = when
	e.when, e.seq, e.arg, e.lane = when, s.seq, arg, l
	e.prev = l.tail
	if l.tail == nil {
		l.head, l.tail = e, e
		l.rekey()
		return
	}
	l.tail.next = e
	l.tail = e
}

// Cancel disarms the entry if it has not fired, and reports whether that
// prevented the callback. An entry is disarmed before its callback runs,
// so the callback may arm it again.
func (e *LaneTimer) Cancel() bool {
	l := e.lane
	if l == nil {
		return false
	}
	l.remove(e)
	l.slot.s.maybeCompact()
	return true
}

// remove disarms e, re-keying the lane's slot if e was its head.
func (l *Lane) remove(e *LaneTimer) {
	head := l.head == e
	l.unlink(e)
	if head {
		l.rekey()
	}
}

// unlink takes e off the lane and disarms it.
func (l *Lane) unlink(e *LaneTimer) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next, e.lane, e.arg = nil, nil, nil, nil
}

// rekey points the lane's slot at the lane's head after the head
// changed. A queued slot keeps its queued key, which the new head's
// never undercuts (deadlines never decrease, and a later arm takes a
// later seq), until settleTimers moves it. An empty lane's queued slot
// counts as a cancelled timer until it surfaces or is compacted away.
func (l *Lane) rekey() {
	sl, s := &l.slot, l.slot.s
	h := l.head
	switch {
	case h == nil:
		if l.queued && !sl.cancelled {
			sl.cancelled = true
			s.cancelledTimers++
		}
	case !l.queued:
		sl.when, sl.seq = h.when, h.seq
		l.queued = true
		s.pushTimer(sl.entry())
	default:
		sl.when, sl.seq = h.when, h.seq
		if sl.cancelled {
			sl.cancelled = false
			s.cancelledTimers--
		}
	}
}

// fireHead fires the lane's head. The caller has popped nothing: the
// lane's settled slot is on top of the heap, and moves to the next
// entry's key in place (or leaves the heap) before the callback runs,
// since the callback may arm and cancel timers itself.
func (l *Lane) fireHead() {
	s, e := l.slot.s, l.head
	arg := e.arg
	l.unlink(e)
	if h := l.head; h != nil {
		l.slot.when, l.slot.seq = h.when, h.seq
		s.timers[0] = l.slot.entry()
		s.timers.down(0)
	} else {
		s.timers.pop()
		l.queued = false
	}
	l.fn(arg)
}
