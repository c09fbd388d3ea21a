package fifo

import "testing"

// TestOrderAndBoundedStorage drives a queue that never drains (the
// shape of a send window) and checks FIFO order, Items, Drop, and that
// the backing array stays within a small multiple of the live size.
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
			if q.Front() != want || q.Items()[1] != want+1 {
				t.Fatalf("round %d: head %d,%d, want %d,%d", round, q.Front(), q.Items()[1], want, want+1)
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
	if c := cap(q.buf); c > 4*q.Len()+8 {
		t.Fatalf("backing array grew to %d for %d live elements", c, q.Len())
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("drain: popped %d, want %d", got, want)
		}
		want++
	}
	if q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("drained queue not reset: head %d len %d", q.head, len(q.buf))
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
	for i, p := range q.buf[:cap(q.buf)] {
		if p == first {
			t.Fatalf("slot %d still references the popped element", i)
		}
	}
}

// TestReserveAllocatesOnce: a reserved queue takes its depth in pushes
// without growing, keeps what it held, and Reserve is free afterwards.
func TestReserveAllocatesOnce(t *testing.T) {
	var q Queue[int]
	q.Push(1)
	q.Push(2)
	q.Pop()
	q.Reserve(64)
	if q.Len() != 1 || q.Front() != 2 || cap(q.buf) != 64 {
		t.Fatalf("after Reserve: len %d, front %d, cap %d", q.Len(), q.Front(), cap(q.buf))
	}
	allocs := testing.AllocsPerRun(10, func() {
		for q.Len() < 64 {
			q.Reserve(64)
			q.Push(0)
		}
		q.Drop(63)
	})
	if allocs != 0 {
		t.Fatalf("filling a reserved queue allocates %.0f times", allocs)
	}
	q.Reserve(8) // smaller than what it has: nothing to do
	if cap(q.buf) != 64 {
		t.Fatalf("Reserve shrank the queue to %d", cap(q.buf))
	}
}
