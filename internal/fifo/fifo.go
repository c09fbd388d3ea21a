// Package fifo provides the ring queue the per-message paths share
// (device packet queues, WQE rings, the guest library's shadow
// work-request lists, the tenant gateway's ack windows) and the free
// list their pools recycle entries through, refilled a slab at a time.
package fifo

// Queue is a FIFO ring. Elements stay where they were pushed until they
// are removed, and the ring allocates only when a push finds it full:
// a queue reserved for its depth (a receive ring), or one that has
// reached its steady-state depth (the device rx queue, the transmit
// queues), allocates nothing per element. The zero value is empty.
type Queue[T any] struct {
	buf  []T // len(buf) is the capacity
	head int // buf index of the first element
	n    int
}

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// At returns a pointer to the i-th element (0 is the head). It stays
// valid until the element is removed or the ring grows.
func (q *Queue[T]) At(i int) *T {
	if i += q.head; i >= len(q.buf) {
		i -= len(q.buf)
	}
	return &q.buf[i]
}

// Reserve makes room for n elements, so that a queue whose depth is
// known when it is first used (a receive ring) is allocated once, at
// exactly that size. It does nothing once the queue has that capacity.
func (q *Queue[T]) Reserve(n int) {
	if len(q.buf) >= n {
		return
	}
	buf := make([]T, n)
	for i := range q.n {
		buf[i] = *q.At(i)
	}
	q.buf, q.head = buf, 0
}

// Push appends v, doubling the ring when it is full.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.Reserve(max(2*q.n, 4))
	}
	q.n++
	*q.At(q.n - 1) = v
}

// Pop removes and returns the head element.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	q.Drop(1)
	return v
}

// Drop removes the first n elements.
func (q *Queue[T]) Drop(n int) {
	for ; n > 0; n-- {
		var zero T
		q.buf[q.head] = zero
		if q.head++; q.head == len(q.buf) {
			q.head = 0
		}
		q.n--
	}
}

// Front returns the head element without removing it.
func (q *Queue[T]) Front() T { return q.buf[q.head] }

// Remove deletes the i-th element and keeps the others in order: the
// ones before it move one place toward the tail, so a removal near the
// head (the common case) moves few.
func (q *Queue[T]) Remove(i int) {
	for ; i > 0; i-- {
		*q.At(i) = *q.At(i - 1)
	}
	q.Drop(1)
}
