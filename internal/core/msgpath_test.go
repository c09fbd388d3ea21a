package core

import (
	"encoding/binary"
	"testing"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/mem"
	"migrrdma/internal/rnic"
	"migrrdma/internal/verbs"
)

// TestSteadyStateSendAllocatesNothing pins the guest-library seam of the
// message path: translation into scratch SGEs, the library's shadow copy
// of each WR, the post through verbs and rnic, and the translated poll
// into a caller-owned buffer allocate nothing per message.
func TestSteadyStateSendAllocatesNothing(t *testing.T) {
	r := newWBSRig(t)
	sgeA := []rnic.SGE{{Addr: 0x100000, Len: 2048, LKey: r.mrA.LKey()}}
	sgeB := []rnic.SGE{{Addr: 0x100000, Len: 4096, LKey: r.mrB.LKey()}}
	var wc [4]rnic.CQE
	id := uint64(0)
	send := func() {
		id++
		if err := r.qpB.PostRecv(rnic.RecvWR{WRID: id, SGEs: sgeB}); err != nil {
			t.Fatal(err)
		}
		if err := r.qpA.PostSend(rnic.SendWR{WRID: id, Opcode: rnic.OpSend, Signaled: true, SGEs: sgeA}); err != nil {
			t.Fatal(err)
		}
		r.cl.Sched.RunFor(50 * time.Microsecond)
		if n := r.cqA.PollInto(wc[:]); n != 1 || wc[0].WRID != id || wc[0].QPN != r.qpA.VQPN() {
			t.Fatalf("send %d: polled %d, %+v", id, n, wc[0])
		}
		if n := r.cqB.PollInto(wc[:]); n != 1 || wc[0].WRID != id || wc[0].ByteLen != 2048 {
			t.Fatalf("recv %d: polled %d, %+v", id, n, wc[0])
		}
		if r.qpA.Outstanding() != 0 || r.qpB.pendingRecvs.Len() != 0 {
			t.Fatalf("shadow lists not retired: %d sends, %d recvs", r.qpA.Outstanding(), r.qpB.pendingRecvs.Len())
		}
	}
	for i := 0; i < 200; i++ {
		send()
	}
	if n := testing.AllocsPerRun(200, send); n != 0 {
		t.Fatalf("steady-state RC SEND through the guest library: %v allocs per message, want 0", n)
	}
}

// TestFakeCQPollKeepsItsStorage: draining the fake CQ shifts it down
// (its backing array is reclaimed, not walked off), emptying it clears
// the temporary QPN table in place, and neither allocates.
func TestFakeCQPollKeepsItsStorage(t *testing.T) {
	r := newWBSRig(t)
	cq := r.cqA
	var wc [8]rnic.CQE
	cycle := func() {
		for i := uint64(0); i < 20; i++ {
			cq.fake = append(cq.fake, rnic.CQE{WRID: i, QPN: 0x42, Opcode: rnic.OpWrite})
		}
		cq.tempQPN[0x42] = 0x777
		for want := uint64(0); want < 20; {
			n := cq.PollInto(wc[:])
			if n == 0 {
				t.Fatal("fake CQ ran dry early")
			}
			for _, e := range wc[:n] {
				if e.WRID != want || e.QPN != 0x777 {
					t.Fatalf("polled %+v, want WRID %d with the temporary translation", e, want)
				}
				want++
			}
		}
		if len(cq.fake) != 0 || len(cq.tempQPN) != 0 || cq.tempQPN == nil {
			t.Fatalf("after draining: fake %d, tempQPN %v", len(cq.fake), cq.tempQPN)
		}
	}
	cycle()
	grown := cap(cq.fake)
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("fake-CQ fill and drain: %v allocs per cycle, want 0", n)
	}
	if cap(cq.fake) != grown {
		t.Fatalf("fake CQ storage went from %d to %d entries", grown, cap(cq.fake))
	}
}

// TestShadowOwnsPostedSGEs: the library's copy of a WR includes its SGE
// list. The application reuses one SGE array for every post — also for
// posts intercepted during suspension — and the replay still sends what
// was posted.
func TestShadowOwnsPostedSGEs(t *testing.T) {
	r := newWBSRig(t)
	r.cl.Sched.Go("test", func() {
		as := r.sa.Proc.AS
		if err := r.write(100); err != nil { // warm the rkey cache
			t.Fatal(err)
		}
		r.cqA.WaitNonEmpty()
		r.cqA.Poll(4)
		qps := r.sa.SuspendAll()
		sge := make([]rnic.SGE, 1)
		for i := 0; i < 6; i++ {
			src := mem.Addr(0x100000 + i*4096)
			as.Write(src, []byte{byte(0xA0 + i)})
			sge[0] = rnic.SGE{Addr: src, Len: 1, LKey: r.mrA.LKey()}
			err := r.qpA.PostSend(rnic.SendWR{WRID: uint64(i), Opcode: rnic.OpWrite, Signaled: true,
				SGEs: sge, RemoteAddr: mem.Addr(0x180000 + i*4096), RKey: r.mrB.RKey()})
			if err != nil {
				t.Fatal(err)
			}
		}
		sge[0] = rnic.SGE{Addr: 0x1F0000, Len: 1, LKey: r.mrA.LKey()} // clobber
		if err := r.sa.Resume(qps); err != nil {
			t.Fatal(err)
		}
		r.cl.Sched.Sleep(time.Millisecond)
		if got := r.cqA.Poll(16); len(got) != 6 {
			t.Fatalf("%d completions after resume, want 6", len(got))
		}
		for i := 0; i < 6; i++ {
			var b [1]byte
			r.sb.Proc.AS.Read(mem.Addr(0x180000+i*4096), b[:])
			if b[0] != byte(0xA0+i) {
				t.Errorf("write %d landed %#x, want %#x: the replay read the application's reused SGE", i, b[0], 0xA0+i)
			}
		}
	})
	r.cl.Sched.RunFor(time.Second)
}

// TestTimeoutReplayOntoSwitchedQP runs the §3.4 timeout path end to end
// at the library level: wait-before-stop gives up across a partition,
// the QP is re-pointed to a spare (what connect-new and switch do on a
// partner), Resume replays the leftover WRs from the library's shadow
// onto it, and the old incarnation's late completions are dropped. The
// device recycles send-queue entries between the two incarnations
// throughout; every WR must complete once and land its own bytes, and so
// must the traffic that follows.
func TestTimeoutReplayOntoSwitchedQP(t *testing.T) {
	r := newWBSRigCfg(t, cluster.Config{Seed: 29, NIC: rnic.Config{MaxRetries: 1000}})
	const leftover, after = 10, 40
	done := false
	r.cl.Sched.Go("test", func() {
		defer func() { done = true }()
		asA, asB := r.sa.Proc.AS, r.sb.Proc.AS
		sge := make([]rnic.SGE, 1)
		post := func(i int) {
			var stamp [8]byte
			binary.LittleEndian.PutUint64(stamp[:], uint64(1000+i))
			// One source slot per WR: the old incarnation retransmits its
			// leftovers after the heal and reads the source again.
			src := mem.Addr(0x100000 + i*64)
			asA.Write(src, stamp[:])
			sge[0] = rnic.SGE{Addr: src, Len: 8, LKey: r.mrA.LKey()}
			err := r.qpA.PostSend(rnic.SendWR{WRID: uint64(i), Opcode: rnic.OpWrite, Signaled: true,
				SGEs: sge, RemoteAddr: mem.Addr(0x180000 + i*64), RKey: r.mrB.RKey()})
			if err != nil {
				t.Fatal(err)
			}
			sge[0] = rnic.SGE{}
		}
		if err := r.write(999); err != nil { // warm the rkey cache
			t.Fatal(err)
		}
		r.cqA.WaitNonEmpty()
		r.cqA.Poll(4)

		r.cl.Net.SetPartitioned("b", true)
		for i := 0; i < leftover; i++ {
			post(i)
		}
		qps := r.sa.SuspendAll()
		res := r.sa.WaitBeforeStop(qps, 2*time.Millisecond)
		if !res.TimedOut || res.LeftoverSends != leftover {
			t.Fatalf("WBS: timed out %v, leftover %d", res.TimedOut, res.LeftoverSends)
		}
		// Re-point qpA at a spare connected to a fresh QP on b, below the
		// library (the control messages could not cross the partition).
		caps := rnic.QPCaps{MaxSend: 128, MaxRecv: 128}
		spare := r.sa.ctx.CreateQP(r.qpA.pd.v, rnic.RC, r.cqA.v, r.cqA.v, nil, caps)
		peer := r.sb.ctx.CreateQP(r.qpB.pd.v, rnic.RC, r.cqB.v, r.cqB.v, nil, caps)
		for _, c := range []struct {
			qp   interface{ Modify(rnic.ModifyAttr) error }
			node string
			rqpn uint32
		}{{spare, "b", peer.QPN()}, {peer, "a", spare.QPN()}} {
			for _, a := range []rnic.ModifyAttr{{State: rnic.StateInit},
				{State: rnic.StateRTR, RemoteNode: c.node, RemoteQPN: c.rqpn}, {State: rnic.StateRTS}} {
				if err := c.qp.Modify(a); err != nil {
					t.Fatal(err)
				}
			}
		}
		oldPhys := r.qpA.v.QPN()
		r.qpA.oldV, r.qpA.v = r.qpA.v, spare
		delete(r.sa.qps, r.qpA.id)
		r.qpA.id = spare.ID
		r.sa.qps[r.qpA.id] = r.qpA
		r.sa.daemon.mapQPN(spare.QPN(), r.qpA.vqpn, r.sa)

		r.cl.Net.SetPartitioned("b", false)
		if err := r.sa.Resume(qps); err != nil {
			t.Fatal(err)
		}
		if got := r.sa.mReplayedWRs.Value(); got != leftover {
			t.Fatalf("replayed %d WRs, want %d", got, leftover)
		}
		for i := leftover; i < leftover+after; i++ {
			post(i)
			if i%8 == 7 {
				r.cl.Sched.Sleep(50 * time.Microsecond)
			}
		}
		r.cl.Sched.Sleep(20 * time.Millisecond) // the old QP's retransmissions land too
		seen := make(map[uint64]int)
		for {
			got := r.cqA.Poll(64)
			if len(got) == 0 {
				break
			}
			for _, e := range got {
				if e.Status != rnic.WCSuccess || e.QPN != r.qpA.VQPN() {
					t.Errorf("completion %+v", e)
				}
				seen[e.WRID]++
			}
		}
		for i := 0; i < leftover+after; i++ {
			if seen[uint64(i)] != 1 {
				t.Errorf("WR %d completed %d times", i, seen[uint64(i)])
			}
			var stamp [8]byte
			asB.Read(mem.Addr(0x180000+i*64), stamp[:])
			if got := binary.LittleEndian.Uint64(stamp[:]); got != uint64(1000+i) {
				t.Errorf("WR %d landed stamp %d", i, got)
			}
		}
		if got := r.sa.mStaleDropped.Value(); got != leftover {
			t.Errorf("dropped %d stale completions of QP %#x, want %d", got, oldPhys, leftover)
		}
		if r.qpA.Outstanding() != 0 {
			t.Errorf("%d WRs still in the shadow window", r.qpA.Outstanding())
		}
	})
	r.cl.Sched.RunFor(5 * time.Second)
	if !done {
		t.Fatal("test proc never finished (parked at a blocking call)")
	}
}

// TestMultiSGEReplay keeps the spill path of rnic.SGEList covered above
// the device: every work request the tree posts has one SGE, which the
// list holds inline, so a two-SGE send intercepted during suspension and
// a two-SGE receive pending across it are replayed from the library's
// spilled shadows onto re-pointed QPs, and land every byte where the
// application asked.
func TestMultiSGEReplay(t *testing.T) {
	r := newWBSRig(t)
	done := false
	r.cl.Sched.Go("test", func() {
		defer func() { done = true }()
		asA, asB := r.sa.Proc.AS, r.sb.Proc.AS
		asA.Write(0x110000, []byte("hello "))
		asA.Write(0x120000, []byte("world!"))
		sges := []rnic.SGE{{Addr: 0x140000, Len: 6, LKey: r.mrB.LKey()}, {Addr: 0x150000, Len: 6, LKey: r.mrB.LKey()}}
		if err := r.qpB.PostRecv(rnic.RecvWR{WRID: 7, SGEs: sges}); err != nil {
			t.Fatal(err)
		}
		qpsA, qpsB := r.sa.SuspendAll(), r.sb.SuspendAll()
		sges = []rnic.SGE{{Addr: 0x110000, Len: 6, LKey: r.mrA.LKey()}, {Addr: 0x120000, Len: 6, LKey: r.mrA.LKey()}}
		if err := r.qpA.PostSend(rnic.SendWR{WRID: 9, Opcode: rnic.OpSend, Signaled: true, SGEs: sges}); err != nil {
			t.Fatal(err)
		}
		sges[0], sges[1] = rnic.SGE{}, rnic.SGE{} // the shadows hold their own copies
		// Re-point both QPs at a fresh connected pair, as a restore does,
		// so Resume replays the pending receive as well as the send.
		caps := rnic.QPCaps{MaxSend: 128, MaxRecv: 128}
		spareA := r.sa.ctx.CreateQP(r.qpA.pd.v, rnic.RC, r.cqA.v, r.cqA.v, nil, caps)
		spareB := r.sb.ctx.CreateQP(r.qpB.pd.v, rnic.RC, r.cqB.v, r.cqB.v, nil, caps)
		for _, c := range []struct {
			qp   interface{ Modify(rnic.ModifyAttr) error }
			node string
			rqpn uint32
		}{{spareA, "b", spareB.QPN()}, {spareB, "a", spareA.QPN()}} {
			for _, a := range []rnic.ModifyAttr{{State: rnic.StateInit},
				{State: rnic.StateRTR, RemoteNode: c.node, RemoteQPN: c.rqpn}, {State: rnic.StateRTS}} {
				if err := c.qp.Modify(a); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, q := range []struct {
			s  *Session
			qp *QP
			v  *verbs.QP
		}{{r.sa, r.qpA, spareA}, {r.sb, r.qpB, spareB}} {
			delete(q.s.qps, q.qp.id)
			q.qp.v, q.qp.id = q.v, q.v.ID
			q.s.qps[q.qp.id] = q.qp
			q.s.daemon.mapQPN(q.v.QPN(), q.qp.vqpn, q.s)
		}
		if err := r.sb.Resume(qpsB); err != nil {
			t.Fatal(err)
		}
		if err := r.sa.Resume(qpsA); err != nil {
			t.Fatal(err)
		}
		r.cqB.WaitNonEmpty()
		if got := r.cqB.Poll(4); len(got) != 1 || got[0].WRID != 7 || got[0].ByteLen != 12 || got[0].Status != rnic.WCSuccess {
			t.Fatalf("receive completions %+v, want WR 7 with 12 bytes", got)
		}
		r.cqA.WaitNonEmpty()
		if got := r.cqA.Poll(4); len(got) != 1 || got[0].WRID != 9 || got[0].Status != rnic.WCSuccess {
			t.Fatalf("send completions %+v, want WR 9", got)
		}
		var first, second [6]byte
		asB.Read(0x140000, first[:])
		asB.Read(0x150000, second[:])
		if string(first[:]) != "hello " || string(second[:]) != "world!" {
			t.Fatalf("landed %q and %q, want \"hello \" and \"world!\"", first, second)
		}
		if r.qpA.Outstanding() != 0 || r.qpB.pendingRecvs.Len() != 0 {
			t.Fatalf("shadows not retired: %d sends, %d receives", r.qpA.Outstanding(), r.qpB.pendingRecvs.Len())
		}
	})
	r.cl.Sched.RunFor(time.Second)
	if !done {
		t.Fatal("test proc never finished (parked at a blocking call)")
	}
}
