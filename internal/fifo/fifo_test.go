package fifo

import (
	"slices"
	"testing"
)

// items returns the queue's elements in order through At.
func items[T any](q *Queue[T]) []T {
	out := make([]T, q.Len())
	for i := range out {
		out[i] = *q.At(i)
	}
	return out
}

// TestOrderAndBoundedStorage drives a queue that never drains (the
// shape of a send window) through thousands of wrap-arounds and checks
// FIFO order, At, Drop, and that the ring never grew past the first
// power of two above its peak depth.
func TestOrderAndBoundedStorage(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	for i := 0; i < 48; i++ {
		q.Push(next)
		next++
	}
	for round := 0; round < 10_000; round++ {
		q.Push(next)
		next++
		if round%3 == 0 {
			q.Push(next)
			next++
			if q.Front() != want || *q.At(1) != want+1 {
				t.Fatalf("round %d: head %d,%d, want %d,%d", round, q.Front(), *q.At(1), want, want+1)
			}
			q.Drop(2)
			want += 2
		} else {
			if got := q.Pop(); got != want {
				t.Fatalf("round %d: popped %d, want %d", round, got, want)
			}
			want++
		}
		if q.Len() != next-want {
			t.Fatalf("round %d: Len %d, want %d", round, q.Len(), next-want)
		}
	}
	if len(q.buf) != 64 {
		t.Fatalf("ring of peak depth 50 grew to %d slots, want 64", len(q.buf))
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("drain: popped %d, want %d", got, want)
		}
		want++
	}
	if q.Len() != 0 || len(q.buf) != 64 {
		t.Fatalf("drained queue: len %d, %d slots", q.Len(), len(q.buf))
	}
}

// TestGrowKeepsOrder: a full ring whose head is mid-buffer doubles with
// its elements in order.
func TestGrowKeepsOrder(t *testing.T) {
	var q Queue[int]
	q.Reserve(4)
	for i := 0; i < 4; i++ {
		q.Push(i)
	}
	q.Drop(3)
	for i := 4; i < 7; i++ {
		q.Push(i) // wraps: slots 0..2
	}
	q.Push(7) // full: grows
	if got, want := items(&q), []int{3, 4, 5, 6, 7}; !slices.Equal(got, want) {
		t.Fatalf("after growth %v, want %v", got, want)
	}
	if len(q.buf) != 8 || q.head != 0 {
		t.Fatalf("grown ring has %d slots, head %d; want 8, 0", len(q.buf), q.head)
	}
}

// TestRemoveKeepsOrder removes at the head, in the middle and at the
// tail of a ring whose elements wrap around its end.
func TestRemoveKeepsOrder(t *testing.T) {
	for _, tc := range []struct {
		at   int
		want []int
	}{
		{0, []int{11, 12, 13, 14}},
		{2, []int{10, 11, 13, 14}},
		{4, []int{10, 11, 12, 13}},
	} {
		var q Queue[*int]
		q.Reserve(5)
		for i := 0; i < 3; i++ {
			q.Push(nil)
		}
		q.Drop(3) // the head is at slot 3: the five elements wrap
		vals := make([]*int, 5)
		for i := range vals {
			vals[i] = new(int)
			*vals[i] = 10 + i
			q.Push(vals[i])
		}
		q.Remove(tc.at)
		var got []int
		for i := 0; i < q.Len(); i++ {
			got = append(got, **q.At(i))
		}
		if !slices.Equal(got, tc.want) {
			t.Fatalf("Remove(%d) left %v, want %v", tc.at, got, tc.want)
		}
		for i, p := range q.buf {
			if p == vals[tc.at] {
				t.Fatalf("Remove(%d): slot %d still references the removed element", tc.at, i)
			}
		}
	}
}

func TestPopClearsSlot(t *testing.T) {
	var q Queue[*int]
	first := new(int)
	q.Push(first)
	for i := 0; i < 5; i++ {
		q.Push(new(int))
	}
	q.Pop()
	for i, p := range q.buf {
		if p == first {
			t.Fatalf("slot %d still references the popped element", i)
		}
	}
}

// TestReserveAllocatesOnce: a reserved queue is allocated at exactly
// the reserved size, keeps what it held, takes its depth in pushes and
// any number of push/pop cycles without allocating, and Reserve is free
// afterwards.
func TestReserveAllocatesOnce(t *testing.T) {
	var q Queue[int]
	q.Push(1)
	q.Push(2)
	q.Pop()
	q.Reserve(63)
	if q.Len() != 1 || q.Front() != 2 || len(q.buf) != 63 {
		t.Fatalf("after Reserve: len %d, front %d, slots %d", q.Len(), q.Front(), len(q.buf))
	}
	allocs := testing.AllocsPerRun(10, func() {
		for q.Len() < 63 {
			q.Reserve(63)
			q.Push(0)
		}
		q.Drop(62)
		for i := 0; i < 200; i++ {
			q.Push(i)
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("push/pop on a reserved queue allocates %.0f times", allocs)
	}
	q.Reserve(8) // smaller than what it has: nothing to do
	if len(q.buf) != 63 {
		t.Fatalf("Reserve shrank the queue to %d", len(q.buf))
	}
}

// TestFreeListHoldsAtMostTwiceItsPeak takes every peak from 1 to 3000
// entries out of an empty list and puts them back: the list never makes
// more than twice the peak, and a peak of 1,024 (a device's send queues
// at the Fig. 4a point) is met exactly by slabs doubling up to 64.
func TestFreeListHoldsAtMostTwiceItsPeak(t *testing.T) {
	for peak := 1; peak <= 3000; peak++ {
		var l FreeList[*int]
		out := make([]*int, 0, peak)
		for round := 0; round < 3; round++ {
			for range peak {
				out = append(out, l.Get(SlabMax, Objects[int]))
			}
			for _, e := range out {
				l.Put(e)
			}
			out = out[:0]
		}
		if l.Made() < peak || l.Made() > 2*peak || l.Len() != l.Made() {
			t.Fatalf("peak %d: made %d, holds %d", peak, l.Made(), l.Len())
		}
		if peak == 1024 && l.Made() != 1024 {
			t.Fatalf("peak 1024: made %d", l.Made())
		}
	}
}

// TestFreeListSlabsAreDistinct: entries cut from one slab are distinct
// objects, and a put entry is the next one got.
func TestFreeListSlabsAreDistinct(t *testing.T) {
	var l FreeList[*int]
	seen := map[*int]bool{}
	for i := range 200 {
		e := l.Get(SlabMax, Objects[int])
		if seen[e] {
			t.Fatalf("get %d returned an entry already out", i)
		}
		seen[e] = true
		*e = i
	}
	var last *int
	for e := range seen {
		l.Put(e)
		last = e
	}
	if got := l.Get(SlabMax, Objects[int]); got != last {
		t.Fatal("get did not return the entry put last")
	}
}
