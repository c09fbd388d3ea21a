package core

import (
	"testing"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/metrics"
	"migrrdma/internal/rnic"
	"migrrdma/internal/task"
	"migrrdma/internal/verbs"
)

// The guest library's completion waits park on the cond of their CQ or
// channel handle and wake at the instant of the event that can satisfy
// them: a completion, a sweep into the fake CQ, the end of
// wait-before-stop, a migration's swap of the device object. These tests
// pin each instant; a wait that re-checked on a clock would return
// later, and hold a timer while idle.

// TestIdlePollerHoldsNoTimer: a poller parked on an empty CQ of an idle
// rig is the one blocked proc and arms nothing.
func TestIdlePollerHoldsNoTimer(t *testing.T) {
	r := newWBSRig(t)
	sched := r.cl.Sched
	defer sched.Close()
	sched.Go("poller", func() { r.cqA.WaitNonEmpty() })
	sched.RunFor(time.Millisecond)
	if n, b := sched.TimerHeapLen(), sched.LiveBlocked(); n != 0 || b != 1 {
		t.Fatalf("idle poller: %d timer heap entries, %d blocked procs; want 0 and 1", n, b)
	}
}

// TestWaitWakesAtTheSweep: during wait-before-stop the application sees
// the fake CQ only, so completions on the real CQ leave it parked; it
// returns at the instant a sweep parks them in the fake CQ.
func TestWaitWakesAtTheSweep(t *testing.T) {
	r := newWBSRig(t)
	sched := r.cl.Sched
	defer sched.Close()
	var swept, woke time.Duration = -1, -1
	sched.Go("test", func() {
		r.sa.wbsDepth++ // the real CQs belong to wait-before-stop
		sched.Go("app", func() {
			r.cqA.WaitNonEmpty()
			woke = sched.Now()
		})
		for i := 0; i < 4; i++ {
			if err := r.write(uint64(i)); err != nil {
				t.Error(err)
			}
		}
		sched.Sleep(time.Millisecond + 37*time.Microsecond)
		if woke >= 0 || r.cqA.v.Len() != 4 {
			t.Errorf("before the sweep: woke at %v, %d completions on the real CQ", woke, r.cqA.v.Len())
		}
		swept = sched.Now()
		r.sa.sweepCQs()
		sched.Sleep(time.Millisecond)
		r.sa.wbsDepth--
	})
	sched.RunFor(10 * time.Millisecond)
	if woke != swept || len(r.cqA.fake) != 4 {
		t.Fatalf("swept at %v, poller woke at %v with %d fake entries; want the sweep's instant and 4", swept, woke, len(r.cqA.fake))
	}
}

// TestChannelGetWakesAtTheEvent: CompChannel.Get returns at the instant
// the device delivers the armed CQ's event.
func TestChannelGetWakesAtTheEvent(t *testing.T) {
	cl := cluster.New(cluster.Config{Seed: 3}, "a", "b")
	defer cl.Close()
	da, db := NewDaemon(cl.Host("a")), NewDaemon(cl.Host("b"))
	var pushed, got time.Duration = -1, -1
	cl.Metrics.Listen(func(e metrics.Event) error {
		if e.Kind == "cqe" && e.Node == "a" && pushed < 0 {
			pushed = e.T
		}
		return nil
	})
	cl.Sched.Go("test", func() {
		pa, pb := task.New(cl.Sched, "pa"), task.New(cl.Sched, "pb")
		sa, sb := NewSession(pa, da), NewSession(pb, db)
		pa.AS.Map(0x100000, 1<<16, "buf")
		pb.AS.Map(0x100000, 1<<16, "buf")
		pdA, pdB := sa.AllocPD(), sb.AllocPD()
		ch := sa.CreateCompChannel()
		cqA, cqB := sa.CreateCQ(64, ch), sb.CreateCQ(64, nil)
		mrA, err := sa.RegMR(pdA, 0x100000, 1<<16, rnic.AccessLocalWrite)
		if err != nil {
			t.Fatal(err)
		}
		mrB, err := sb.RegMR(pdB, 0x100000, 1<<16, rnic.AccessLocalWrite|rnic.AccessRemoteWrite)
		if err != nil {
			t.Fatal(err)
		}
		qpA := sa.CreateQP(pdA, QPConfig{Type: rnic.RC, SendCQ: cqA, RecvCQ: cqA})
		qpB := sb.CreateQP(pdB, QPConfig{Type: rnic.RC, SendCQ: cqB, RecvCQ: cqB})
		for _, st := range []rnic.QPState{rnic.StateInit, rnic.StateRTR, rnic.StateRTS} {
			qpA.Modify(rnic.ModifyAttr{State: st, RemoteNode: "b", RemoteQPN: qpB.VQPN()})
			qpB.Modify(rnic.ModifyAttr{State: st, RemoteNode: "a", RemoteQPN: qpA.VQPN()})
		}
		cqA.ReqNotify()
		cl.Sched.Go("app", func() {
			if ch.Get() == cqA {
				got = cl.Sched.Now()
			}
		})
		cl.Sched.Sleep(time.Millisecond)
		if err := qpA.PostSend(rnic.SendWR{WRID: 1, Opcode: rnic.OpWrite, Signaled: true,
			SGEs:       []rnic.SGE{{Addr: 0x100000, Len: 512, LKey: mrA.LKey()}},
			RemoteAddr: 0x100000, RKey: mrB.RKey()}); err != nil {
			t.Fatal(err)
		}
	})
	cl.Sched.RunFor(10 * time.Millisecond)
	if pushed < 0 || got != pushed {
		t.Fatalf("event delivered at %v, Get returned at %v", pushed, got)
	}
}

// flushInto puts one completion carrying wrid into device CQ cq: a
// throwaway QP of ctx posts a receive and enters the error state, which
// flushes it. ctx records nothing (its recorder is off), so the
// session's roadmap never sees the QP.
func flushInto(t *testing.T, ctx *verbs.Context, pd *verbs.PD, cq *verbs.CQ, wrid uint64) {
	t.Helper()
	qp := ctx.CreateQP(pd, rnic.RC, cq, cq, nil, rnic.QPCaps{MaxSend: 1, MaxRecv: 1})
	if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateInit}); err != nil {
		t.Fatal(err)
	}
	if err := qp.PostRecv(rnic.RecvWR{WRID: wrid}); err != nil {
		t.Fatal(err)
	}
	if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateError}); err != nil {
		t.Fatal(err)
	}
}

// TestWaitFollowsTheSwap: a poller parked across adoption returns at the
// swap with the completion already waiting on the staged device CQ, and
// one parked across the abort's undo returns at the undo with the
// source CQ's completion — and not before: the CQ it is not attached to
// does not wake it.
func TestWaitFollowsTheSwap(t *testing.T) {
	cl := cluster.New(cluster.Config{Seed: 9}, "a", "dst")
	defer cl.Close()
	da, dd := NewDaemon(cl.Host("a")), NewDaemon(cl.Host("dst"))
	sched := cl.Sched
	type wake struct {
		at   time.Duration
		wrid uint64
	}
	var wakes []wake
	var bound, unbound time.Duration
	sched.Go("test", func() {
		p := task.New(sched, "app")
		s := NewSession(p, da)
		pd := s.AllocPD()
		cq := s.CreateCQ(64, nil)
		st, err := dd.RestoreContextFor(ghostRestore(cl, "ghost"), nil, s.Checkpoint(false), "")
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Replay(); err != nil {
			t.Fatal(err)
		}
		st.ctx.SetRecorder(nil)
		srcCtx, srcPD, srcCQ := s.ctx, pd.v, cq.v
		sched.Go("poller", func() {
			for len(wakes) < 2 {
				cq.WaitNonEmpty()
				for _, e := range cq.Poll(4) {
					wakes = append(wakes, wake{sched.Now(), e.WRID})
				}
			}
		})
		flushInto(t, st.ctx, st.pds[pd.id], st.cqs[cq.id], 7) // staged CQ: not attached yet
		sched.Sleep(time.Millisecond)
		bound = sched.Now()
		if err := st.bind(s); err != nil {
			t.Fatal(err)
		}
		sched.Sleep(time.Millisecond)
		flushInto(t, srcCtx, srcPD, srcCQ, 9) // source CQ: detached until the undo
		sched.Sleep(time.Millisecond + 29*time.Microsecond)
		unbound = sched.Now()
		st.unbind(s)
	})
	sched.RunFor(10 * time.Millisecond)
	want := []wake{{bound, 7}, {unbound, 9}}
	if len(wakes) != 2 || wakes[0] != want[0] || wakes[1] != want[1] {
		t.Fatalf("poller woke %v; want %v (at the bind, then at the unbind)", wakes, want)
	}
}
