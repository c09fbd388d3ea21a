package core

import (
	"testing"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/fifo"
	"migrrdma/internal/mem"
	"migrrdma/internal/metrics"
	"migrrdma/internal/rnic"
	"migrrdma/internal/task"
)

// TestCompChannelGetCountsOneUnhandledEvent regression-tests the §3.4
// consistency counter on the fake-CQ path of CompChannel.Get: a repeated
// Get (or a second event) before the next Poll must count at most one
// unhandled event per CQ, because Poll only ever decrements once.
func TestCompChannelGetCountsOneUnhandledEvent(t *testing.T) {
	cl := cluster.New(cluster.Config{Seed: 11}, "h")
	d := NewDaemon(cl.Host("h"))
	cl.Sched.Go("test", func() {
		p := task.New(cl.Sched, "p")
		s := NewSession(p, d)
		ch := s.CreateCompChannel()
		cq := s.CreateCQ(64, ch)
		// Park two completions on the fake CQ, as wait-before-stop does
		// when it steals an armed event during migration.
		cq.fake = append(cq.fake, rnic.CQE{WRID: 1, Opcode: rnic.OpSend, Status: rnic.WCSuccess})
		cq.fake = append(cq.fake, rnic.CQE{WRID: 2, Opcode: rnic.OpSend, Status: rnic.WCSuccess})

		if got := ch.Get(); got != cq {
			t.Errorf("Get returned wrong CQ")
		}
		if s.unhandledEvents != 1 {
			t.Errorf("after first Get: unhandledEvents = %d, want 1", s.unhandledEvents)
		}
		// The application may call Get again before polling; the counter
		// must not drift.
		if got := ch.Get(); got != cq {
			t.Errorf("second Get returned wrong CQ")
		}
		if s.unhandledEvents != 1 {
			t.Errorf("after second Get: unhandledEvents = %d, want 1", s.unhandledEvents)
		}
		if got := cq.Poll(16); len(got) != 2 {
			t.Errorf("Poll drained %d entries, want 2", len(got))
		}
		if s.unhandledEvents != 0 {
			t.Errorf("after Poll: unhandledEvents = %d, want 0", s.unhandledEvents)
		}
		if cq.eventPending {
			t.Error("eventPending still set after Poll")
		}
	})
	cl.Sched.RunFor(time.Second)
}

// TestCloseDeterministicTeardown regression-tests Session.Close ordering:
// resources must tear down in ObjID (creation) order, not Go map
// iteration order, since the destroy events feed the deterministic
// trace/metrics hashes.
func TestCloseDeterministicTeardown(t *testing.T) {
	cl := cluster.New(cluster.Config{Seed: 12}, "h")
	d := NewDaemon(cl.Host("h"))
	cl.Sched.Go("test", func() {
		p := task.New(cl.Sched, "p")
		s := NewSession(p, d)
		p.AS.Map(0x100000, 1<<20, "buf")
		pd := s.AllocPD()
		var created []uint32
		for i := 0; i < 8; i++ {
			mr, err := s.RegMR(pd, mem.Addr(0x100000+0x1000*uint64(i)), 0x1000, rnic.AccessLocalWrite)
			if err != nil {
				t.Fatal(err)
			}
			created = append(created, mr.v.RKey())
		}
		var deregged []uint32
		cl.Metrics.Listen(func(e metrics.Event) error {
			if e.Kind == "dereg" {
				deregged = append(deregged, e.RKey)
			}
			return nil
		})
		s.Close()
		cl.Metrics.Listen(nil)
		if len(deregged) != len(created) {
			t.Fatalf("%d deregs for %d MRs", len(deregged), len(created))
		}
		for i := range created {
			if deregged[i] != created[i] {
				t.Fatalf("dereg order %v != creation order %v (teardown is nondeterministic)",
					deregged, created)
			}
		}
	})
	cl.Sched.RunFor(time.Second)
}

// TestAbsorbRetiresMatchingRecvWR regression-tests absorb's receive
// accounting: completions can surface out of posting order (SRQ sharing,
// go-back-N recovery), so the pending list must be matched by WRID, not
// popped head-first — popping by count desyncs the list and makes
// restore replay the wrong receive WRs.
func TestAbsorbRetiresMatchingRecvWR(t *testing.T) {
	cl := cluster.New(cluster.Config{Seed: 13}, "h")
	d := NewDaemon(cl.Host("h"))
	cl.Sched.Go("test", func() {
		p := task.New(cl.Sched, "p")
		s := NewSession(p, d)
		pd := s.AllocPD()
		cq := s.CreateCQ(64, nil)
		qp := s.CreateQP(pd, QPConfig{Type: rnic.RC, SendCQ: cq, RecvCQ: cq})
		phys := qp.v.QPN()
		for _, id := range []uint64{10, 11, 12} {
			qp.pendingRecvs.Push(rnic.NewRecvWQE(rnic.RecvWR{WRID: id}))
		}

		// A middle completion retires exactly its own WR.
		s.absorb(cq, rnic.CQE{QPN: phys, WRID: 11, Opcode: rnic.OpRecv, Status: rnic.WCSuccess})
		if got := recvWRIDs(&qp.pendingRecvs); len(got) != 2 || got[0] != 10 || got[1] != 12 {
			t.Fatalf("pending after absorbing WRID 11: %v, want [10 12]", got)
		}
		// An already-retired (flush/duplicate) WRID leaves the list alone.
		s.absorb(cq, rnic.CQE{QPN: phys, WRID: 11, Opcode: rnic.OpRecv, Status: rnic.WCSuccess})
		if got := recvWRIDs(&qp.pendingRecvs); len(got) != 2 {
			t.Fatalf("pending after duplicate absorb: %v, want [10 12]", got)
		}
		// Out-of-order completion of the tail, then the head.
		s.absorb(cq, rnic.CQE{QPN: phys, WRID: 12, Opcode: rnic.OpRecv, Status: rnic.WCSuccess})
		s.absorb(cq, rnic.CQE{QPN: phys, WRID: 10, Opcode: rnic.OpRecv, Status: rnic.WCSuccess})
		if got := recvWRIDs(&qp.pendingRecvs); len(got) != 0 {
			t.Fatalf("pending after draining: %v, want empty", got)
		}
	})
	cl.Sched.RunFor(time.Second)
}

func recvWRIDs(pend *fifo.Queue[rnic.RecvWQE]) []uint64 {
	out := make([]uint64, 0, pend.Len())
	for i := 0; i < pend.Len(); i++ {
		out = append(out, pend.At(i).WRID)
	}
	return out
}

// TestRetireRecvWRFirstOccurrence pins the helper's contract directly:
// WRIDs recycle, so a match must retire the oldest posting, and a miss
// must leave the list unchanged.
func TestRetireRecvWRFirstOccurrence(t *testing.T) {
	var pend fifo.Queue[rnic.RecvWQE]
	for _, id := range []uint64{5, 7, 5} {
		pend.Push(rnic.NewRecvWQE(rnic.RecvWR{WRID: id}))
	}
	retireRecvWR(&pend, 5)
	if got := recvWRIDs(&pend); len(got) != 2 || got[0] != 7 || got[1] != 5 {
		t.Fatalf("after retiring 5: %v, want [7 5]", got)
	}
	retireRecvWR(&pend, 99)
	if got := recvWRIDs(&pend); len(got) != 2 {
		t.Fatalf("retiring unknown WRID changed the list: %v", got)
	}
}
