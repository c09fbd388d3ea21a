// Package fifo provides the head-indexed queue the per-message paths
// share (device packet queues, WQE rings, the guest library's shadow
// work-request lists).
package fifo

// Queue is a head-indexed FIFO queue. Popping advances a head index
// instead of re-slicing, so the backing array's capacity survives
// arbitrary push/pop interleavings: per-packet queues (the device rx
// queue, the control/response transmit queues, the QP transmit ring)
// reach a steady state with no allocation per element. The zero value
// is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Reserve makes room for n elements, so that a queue whose depth is
// known when it is first used (a receive ring) is allocated once and
// not by doubling. It does nothing once the queue has that capacity.
func (q *Queue[T]) Reserve(n int) {
	if cap(q.buf) >= n {
		return
	}
	buf := make([]T, q.Len(), n)
	copy(buf, q.buf[q.head:])
	q.buf, q.head = buf, 0
}

// Push appends v.
func (q *Queue[T]) Push(v T) { q.buf = append(q.buf, v) }

// Pop removes and returns the head element.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	q.Drop(1)
	return v
}

// Drop removes the first n elements.
func (q *Queue[T]) Drop(n int) {
	clear(q.buf[q.head : q.head+n])
	q.head += n
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head >= len(q.buf)-q.head {
		// Slide the live tail down once the dead prefix is as long: a
		// queue that never fully drains stays within twice its live size
		// (its working set stays cache-sized even with large elements),
		// at one element move per removal amortised.
		live := copy(q.buf, q.buf[q.head:])
		clear(q.buf[live:])
		q.buf = q.buf[:live]
		q.head = 0
	}
}

// Front returns the head element without removing it.
func (q *Queue[T]) Front() T { return q.buf[q.head] }

// Items returns the live elements in order. The slice aliases the
// queue's storage and is invalidated by Push, Pop and Drop.
func (q *Queue[T]) Items() []T { return q.buf[q.head:] }
