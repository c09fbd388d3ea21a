package fifo

// SlabMax is the usual cap on a refill: a device's send queues peak at
// 1,024 WQEs (a Fig. 4a sender), which slabs doubling up to 64 meet
// exactly (1 + 1 + 2 + … + 32 = 64, then fifteen slabs of 64).
const SlabMax = 64

// FreeList recycles entries of a hot-path pool (a device's WQEs and
// packets, a network's deliveries and wire buffers): Put keeps a retired
// entry, Get hands back the one put last. A Get that finds the list empty
// refills it a slab at a time: one allocation makes as many entries as the
// list has made so far (at least one, at most the list's limit, or the few
// more the allocation's rounding leaves room for). A miss
// means every entry made is out, so a list whose users put back what
// they take never makes more than twice its peak, and a pool that grows
// to a steady depth stops allocating once it gets there. The zero value
// is empty.
type FreeList[E any] struct {
	free []E
	made int
}

// Len reports the number of entries waiting in the list.
func (l *FreeList[E]) Len() int { return len(l.free) }

// Made reports the number of entries the list's refills have made.
func (l *FreeList[E]) Made() int { return l.made }

// Get takes the entry put last. On a miss it first refills: slab appends
// at least n fresh entries to the list it is given and returns it, n being
// the number made so far, clamped to [1, limit].
func (l *FreeList[E]) Get(limit int, slab func(free []E, n int) []E) E {
	if len(l.free) == 0 {
		l.free = slab(l.free, min(max(l.made, 1), limit))
		l.made += len(l.free)
	}
	last := len(l.free) - 1
	e := l.free[last]
	var zero E
	l.free[last] = zero
	l.free = l.free[:last]
	return e
}

// Put returns an entry to the list. Resetting it is the caller's job.
func (l *FreeList[E]) Put(e E) { l.free = append(l.free, e) }

// Objects is the slab function of a list of *T: one allocation of n
// zeroed Ts, appended as pointers.
func Objects[T any](free []*T, n int) []*T {
	s := make([]T, n)
	for i := range s {
		free = append(free, &s[i])
	}
	return free
}
