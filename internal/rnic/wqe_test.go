package rnic

import (
	"encoding/binary"
	"testing"
	"time"

	"migrrdma/internal/mem"
	"migrrdma/internal/metrics"
)

// TestSteadyStateSendAllocatesNothing pins the device seam of the
// message path: one RC SEND — post, fragment, wire, scatter, ack, both
// CQEs DMA-written into shadow rings, both polled into a caller-owned
// buffer — allocates nothing once the pools are warm.
func TestSteadyStateSendAllocatesNothing(t *testing.T) {
	const ringAddr = 0x800000
	var mrA, mrB *MR
	r := newRig(t, Config{}, func(r *rig) {
		mrA, mrB = r.a.regMR(t, 0x100000, 1<<20), r.b.regMR(t, 0x100000, 1<<20)
		for _, h := range []*host{r.a, r.b} {
			if _, err := h.as.Map(ringAddr, uint64(h.cq.cap*cqeSlotSize), "cq-ring"); err != nil {
				t.Error(err)
			}
			h.cq.SetShadowRing(h.as, ringAddr)
		}
	})
	r.s.Run()
	sgeA := []SGE{{Addr: 0x100000, Len: 6000, LKey: mrA.LKey}} // two fragments
	sgeB := []SGE{{Addr: 0x100000, Len: 8192, LKey: mrB.LKey}}
	var wc [4]CQE
	id := uint64(0)
	send := func() {
		id++
		if err := r.qpB.PostRecv(RecvWR{WRID: id, SGEs: sgeB}); err != nil {
			t.Fatal(err)
		}
		if err := r.qpA.PostSend(SendWR{WRID: id, Opcode: OpSend, Signaled: true, SGEs: sgeA}); err != nil {
			t.Fatal(err)
		}
		r.s.RunFor(50 * time.Microsecond)
		if n := r.a.cq.PollInto(wc[:]); n != 1 || wc[0].WRID != id || wc[0].Status != WCSuccess {
			t.Fatalf("send %d: polled %d, %+v", id, n, wc[0])
		}
		if n := r.b.cq.PollInto(wc[:]); n != 1 || wc[0].WRID != id || wc[0].ByteLen != 6000 {
			t.Fatalf("recv %d: polled %d, %+v", id, n, wc[0])
		}
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if n := testing.AllocsPerRun(200, send); n != 0 {
		t.Fatalf("steady-state RC SEND: %v allocs per message, want 0", n)
	}
}

// TestPollReturnsOwnBuffer pins Poll's contract: a thin wrapper over
// PollInto whose result lives in the CQ and is overwritten by the next
// Poll.
func TestPollReturnsOwnBuffer(t *testing.T) {
	r := newRig(t, Config{}, func(r *rig) {
		for i := uint64(1); i <= 5; i++ {
			r.a.cq.push(CQE{WRID: i})
		}
		first := r.a.cq.Poll(2)
		if len(first) != 2 || first[0].WRID != 1 || first[1].WRID != 2 {
			t.Errorf("first poll %+v", first)
		}
		second := r.a.cq.Poll(2)
		if len(second) != 2 || second[0].WRID != 3 || second[1].WRID != 4 {
			t.Errorf("second poll %+v", second)
		}
		if &first[0] != &second[0] {
			t.Error("Poll allocated a fresh slice instead of reusing the CQ's buffer")
		}
		if rest := r.a.cq.Poll(64); len(rest) != 1 || rest[0].WRID != 5 {
			t.Errorf("third poll %+v", rest)
		}
		if got := r.a.cq.Poll(64); len(got) != 0 {
			t.Errorf("poll of an empty CQ returned %+v", got)
		}
	})
	r.s.Run()
}

// wqeInvariant fails the test if a pooled send-queue entry is still
// referenced by any queue of the device, or appears in the pool twice,
// or if a QP's count of sent entries (what armRTO tests) is not the
// number a walk of its send queue finds.
func wqeInvariant(t *testing.T, d *Device) {
	t.Helper()
	for _, qp := range d.qps {
		walked := 0
		for _, e := range qp.sq {
			if e.state == sqSent {
				walked++
			}
		}
		if qp.nSent != walked {
			t.Fatalf("QP %#x counts %d sent entries, its send queue holds %d", qp.QPN, qp.nSent, walked)
		}
	}
	free := make(map[*sqEntry]bool, d.wqes.Len())
	for _, e := range pooledWQEs(d) {
		if free[e] {
			t.Fatalf("entry %p is in the pool twice", e)
		}
		free[e] = true
	}
	for _, qp := range d.qps {
		for _, e := range qp.sq {
			if free[e] {
				t.Fatalf("pooled entry %p (psn %d) is still on the send queue of QP %#x", e, e.psn, qp.QPN)
			}
		}
		for i := 0; i < qp.txq.Len(); i++ {
			if e := *qp.txq.At(i); free[e] {
				t.Fatalf("pooled entry %p (psn %d) is still on the transmit queue of QP %#x", e, e.psn, qp.QPN)
			}
		}
	}
}

// pooledWQEs returns the entries waiting in d's WQE pool, the one the
// next getWQE returns first, and leaves the pool as it found it.
func pooledWQEs(d *Device) []*sqEntry {
	out := make([]*sqEntry, d.wqes.Len())
	for i := range out {
		out[i] = d.getWQE()
	}
	for i := len(out) - 1; i >= 0; i-- {
		d.wqes.Put(out[i])
	}
	return out
}

// checkWQEs runs wqeInvariant on each of the rig's devices at every ack
// and cqe event that device emits (into its own registry), so a test that
// recovers from faults checks the pool and the sent counts all the way
// through.
func checkWQEs(t *testing.T, r *rig) {
	for _, d := range []*Device{r.a.dev, r.b.dev} {
		d.Metrics().Listen(func(e metrics.Event) error {
			if e.Kind == "ack" || e.Kind == "cqe" {
				wqeInvariant(t, d)
			}
			return nil
		})
	}
}

// TestRecycledWQEsSurviveRecovery drives a window of stamped SENDs
// through loss (go-back-N by NAK and by timeout) and through a receiver
// that posts its buffers late (RNR retries), with send-queue entries
// recycled throughout. Every message must complete once, in order, with
// its own payload, and no recycled entry may still sit on a queue.
func TestRecycledWQEsSurviveRecovery(t *testing.T) {
	const (
		msgs  = 300
		depth = 8
		slot  = 8192
	)
	r := newRig(t, Config{}, func(r *rig) {
		mrA := r.a.regMR(t, 0x100000, 1<<20)
		mrB := r.b.regMR(t, 0x100000, 1<<20)
		checkWQEs(t, r)
		r.net.SetLoss("hostA", 0.05)
		r.net.SetLoss("hostB", 0.05)
		r.s.Go("receiver", func() {
			// Post late and in small batches so the sender runs into RNR.
			for posted := 0; posted < msgs; {
				r.s.Sleep(60 * time.Microsecond)
				for k := 0; k < 4 && posted < msgs; k, posted = k+1, posted+1 {
					sge := []SGE{{Addr: 0x100000 + mem.Addr(posted%64*slot), Len: slot, LKey: mrB.LKey}}
					if err := r.qpB.PostRecv(RecvWR{WRID: uint64(posted), SGEs: sge}); err != nil {
						t.Error(err)
						return
					}
					sge[0] = SGE{} // the device owns its copy
				}
			}
		})
		r.s.Go("checker", func() {
			for i := 0; i < msgs; i++ {
				c := pollN(r.b.cq, 1)[0]
				if c.WRID != uint64(i) || c.Status != WCSuccess || c.ByteLen != 5000 {
					t.Errorf("recv %d: CQE %+v", i, c)
					return
				}
				var stamp [8]byte
				r.b.as.Read(0x100000+mem.Addr(i%64*slot)+4992, stamp[:])
				if got := binary.LittleEndian.Uint64(stamp[:]); got != uint64(i) {
					t.Errorf("recv %d carries stamp %d", i, got)
					return
				}
			}
		})
		sge := make([]SGE, 1)
		posted, done := 0, 0
		for done < msgs {
			for posted < msgs && posted-done < depth {
				addr := mem.Addr(0x100000 + posted%depth*slot)
				var stamp [8]byte
				binary.LittleEndian.PutUint64(stamp[:], uint64(posted))
				r.a.as.Write(addr+4992, stamp[:]) // in the second fragment
				sge[0] = SGE{Addr: addr, Len: 5000, LKey: mrA.LKey}
				if err := r.qpA.PostSend(SendWR{WRID: uint64(posted), Opcode: OpSend, Signaled: true, SGEs: sge}); err != nil {
					t.Error(err)
					return
				}
				sge[0] = SGE{}
				posted++
			}
			c := pollN(r.a.cq, 1)[0]
			if c.WRID != uint64(done) || c.Status != WCSuccess {
				t.Errorf("send %d: CQE %+v", done, c)
				return
			}
			done++
		}
		if gbn, rnrs := r.qpA.mGoBackN.Value(), r.qpB.mRNRs.Value(); gbn == 0 || rnrs == 0 {
			t.Errorf("go-back-N rounds %d, RNR NAKs %d: both recoveries must have run", gbn, rnrs)
		}
		wqeInvariant(t, r.a.dev)
		// Everything retired went back to the pool and was taken from it
		// again: 300 messages made do with about a window of entries.
		if n := r.a.dev.wqes.Len(); n == 0 || n > 2*depth {
			t.Errorf("pool holds %d entries after %d messages at depth %d", n, msgs, depth)
		}
	})
	r.s.Run()
}

// TestWQEAckedWhileQueuedIsRecycledLate is the one ordering the pool
// has to get right: an entry rewound for retransmission is completed (a
// READ by the response to its first transmission) while it still waits
// on the transmit queue. Retirement must leave it alone; the transmit
// queue recycles it when it pops it.
func TestWQEAckedWhileQueuedIsRecycledLate(t *testing.T) {
	r := newRig(t, Config{}, func(r *rig) {
		mrA, mrB := r.a.regMR(t, 0x100000, 8192), r.b.regMR(t, 0x100000, 8192)
		d := r.a.dev
		r.b.as.Write(0x100000, []byte("remote"))
		read := SendWR{WRID: 1, Opcode: OpRead, Signaled: true, RemoteAddr: 0x100000, RKey: mrB.RKey,
			SGEs: []SGE{{Addr: 0x100000, Len: 6, LKey: mrA.LKey}}}
		// Lose the first transmission; the responder is then moved on by
		// hand, as if it had served the request and its response were
		// still in flight.
		r.net.SetLoss("hostA", 1.0)
		r.qpA.PostSend(read)
		r.s.Sleep(20 * time.Microsecond)
		r.net.SetLoss("hostA", 0)
		r.qpB.expPSN = 1
		e := r.qpA.sq[0]
		if e.state != sqSent {
			t.Fatalf("entry state %d, want sent", e.state)
		}
		d.txBusy = true // hold the wire so the retransmission stays queued
		r.qpA.retransmitUnackedQueued()
		if !e.queued || r.qpA.txq.Len() != 1 {
			t.Fatal("entry not queued for retransmission")
		}
		// The response to the first transmission, late.
		r.qpA.requester(&packet{Type: ptReadResp, PSN: e.psn, Last: true, Payload: []byte("remote")})
		if len(r.qpA.sq) != 0 || r.a.cq.Len() != 1 {
			t.Fatalf("response did not retire the entry: sq %d, cq %d", len(r.qpA.sq), r.a.cq.Len())
		}
		if d.wqes.Len() != 0 {
			t.Fatal("entry recycled while the transmit queue still lists it")
		}
		d.txBusy = false
		d.pump()
		if r.qpA.txq.Len() != 0 || d.wqes.Len() != 1 || pooledWQEs(d)[0] != e {
			t.Fatalf("transmit queue did not recycle the entry: txq %d, pool %d", r.qpA.txq.Len(), d.wqes.Len())
		}
		// The recycled entry carries the next request, once.
		read.WRID = 2
		r.qpA.PostSend(read)
		if r.qpA.sq[0] != e {
			t.Error("next post did not reuse the pooled entry")
		}
		r.s.Sleep(100 * time.Microsecond)
		got := r.a.cq.Poll(8)
		if len(got) != 2 || got[0].WRID != 1 || got[1].WRID != 2 || got[1].Status != WCSuccess {
			t.Errorf("completions %+v, want WRIDs 1 then 2", got)
		}
		if n := r.a.dev.mTxFrames.Value(); n != 2 {
			t.Errorf("requester put %d frames on the wire, want 2 (the two READ requests)", n)
		}
	})
	r.s.Run()
}

// TestSRQOwnsPostedSGEs: a shared receive queue copies the scatter list
// like any other queue, and reclaims its head as it drains.
func TestSRQOwnsPostedSGEs(t *testing.T) {
	r := newRig(t, Config{}, func(r *rig) {
		mrA, mrB := r.a.regMR(t, 0x100000, 1<<20), r.b.regMR(t, 0x100000, 1<<20)
		srq := r.b.dev.CreateSRQ()
		qpB := r.b.dev.CreateQP(r.b.pd, RC, r.b.cq, r.b.cq, srq, QPCaps{})
		qpA := r.a.dev.CreateQP(r.a.pd, RC, r.a.cq, r.a.cq, nil, QPCaps{})
		connectRC(t, qpA, "hostB", qpB.QPN)
		connectRC(t, qpB, "hostA", qpA.QPN)
		scratch := make([]SGE, 1)
		for round := 0; round < 50; round++ {
			for i := 0; i < 4; i++ {
				scratch[0] = SGE{Addr: 0x100000 + mem.Addr(i*4096), Len: 4096, LKey: mrB.LKey}
				srq.PostRecv(RecvWR{WRID: uint64(i), SGEs: scratch})
			}
			scratch[0] = SGE{} // clobber: the queue must hold its own copy
			for i := 0; i < 4; i++ {
				r.a.as.Write(0x100000, []byte{byte(round), byte(i)})
				qpA.PostSend(SendWR{WRID: uint64(i), Opcode: OpSend, Signaled: true,
					SGEs: []SGE{{Addr: 0x100000, Len: 2, LKey: mrA.LKey}}})
				pollN(r.a.cq, 1)
				if c := pollN(r.b.cq, 1)[0]; c.Status != WCSuccess || c.WRID != uint64(i) {
					t.Fatalf("round %d recv %d: %+v", round, i, c)
				}
				var got [2]byte
				r.b.as.Read(0x100000+mem.Addr(i*4096), got[:])
				if got != [2]byte{byte(round), byte(i)} {
					t.Fatalf("round %d recv %d landed %v", round, i, got)
				}
			}
		}
		if srq.Len() != 0 {
			t.Errorf("SRQ holds %d entries after draining", srq.Len())
		}
	})
	r.s.Run()
}

// TestSendQueueHoldsNoCompletedEntry pins what SendQueueDepth and the
// queue-full check of PostSend rely on:
// completeInOrder takes every entry it completes off the send queue, so
// no entry of qp.sq is ever sqCompleted — through ACKs, go-back-N by
// NAK and by RTO, and the retry-exceeded flush into the error state.
func TestSendQueueHoldsNoCompletedEntry(t *testing.T) {
	const msgs, depth = 120, 8
	r := newRig(t, Config{}, func(r *rig) {
		mrA := r.a.regMR(t, 0x100000, 1<<20)
		mrB := r.b.regMR(t, 0x100000, 1<<20)
		checks := 0
		check := func() {
			checks++
			for _, e := range r.qpA.sq {
				if e.state == sqCompleted {
					t.Fatalf("completed entry (psn %d) still on the send queue", e.psn)
				}
			}
		}
		// An "ack" marks an entry between two completeInOrder calls; a
		// "cqe" is emitted from inside one, so it is checked after the poll.
		r.a.dev.Metrics().Listen(func(e metrics.Event) error {
			if e.Kind == "ack" && e.Node == "hostA" {
				check()
			}
			return nil
		})
		for i := 0; i < msgs+depth; i++ {
			sge := []SGE{{Addr: 0x100000 + mem.Addr(i%64*8192), Len: 8192, LKey: mrB.LKey}}
			if err := r.qpB.PostRecv(RecvWR{WRID: uint64(i), SGEs: sge}); err != nil {
				t.Fatal(err)
			}
		}
		r.net.SetLoss("hostA", 0.05)
		r.net.SetLoss("hostB", 0.05)
		send := func(i int) {
			sge := []SGE{{Addr: 0x100000 + mem.Addr(i%depth*8192), Len: 5000, LKey: mrA.LKey}}
			if err := r.qpA.PostSend(SendWR{WRID: uint64(i), Opcode: OpSend, Signaled: true, SGEs: sge}); err != nil {
				t.Fatal(err)
			}
			check()
		}
		posted, done := 0, 0
		for done < msgs {
			for ; posted < msgs && posted-done < depth; posted++ {
				send(posted)
			}
			if c := pollN(r.a.cq, 1)[0]; c.Status != WCSuccess {
				t.Fatalf("send %d: %+v", done, c)
			}
			check()
			done++
		}
		if gbn, naks := r.qpA.mGoBackN.Value(), r.qpB.mNaks.Value(); gbn == 0 || naks == 0 {
			t.Fatalf("go-back-N rounds %d, NAKs %d: both recoveries must have run", gbn, naks)
		}
		// Everything lost from here on: RTOs until the retry budget runs
		// out, then the flush into the error state.
		r.net.SetLoss("hostA", 1)
		for ; posted < msgs+depth; posted++ {
			send(posted)
		}
		for _, c := range pollN(r.a.cq, depth) {
			if c.Status != WCRetryExceeded && c.Status != WCWRFlushErr {
				t.Fatalf("flushed send: %+v", c)
			}
		}
		check()
		if r.qpA.State() != StateError || len(r.qpA.sq) != 0 {
			t.Fatalf("state %v with %d entries on the send queue", r.qpA.State(), len(r.qpA.sq))
		}
		if checks < msgs {
			t.Fatalf("only %d checks ran", checks)
		}
	})
	r.s.Run()
}

// TestWQEPoolHoldsAtMostTwiceThePeak posts windows of peak WRITEs at
// once, each drained before the next: the device's WQE pool refills a
// slab at a time and never makes more than twice the peak, and every
// entry it made is back in the pool at the end.
func TestWQEPoolHoldsAtMostTwiceThePeak(t *testing.T) {
	const peak = 100
	r := newRig(t, Config{}, func(r *rig) {
		mrA, mrB := r.a.regMR(t, 0x100000, 4096), r.b.regMR(t, 0x100000, 4096)
		checkWQEs(t, r)
		sge := []SGE{{Addr: 0x100000, Len: 64, LKey: mrA.LKey}}
		for round := range 5 {
			for i := range peak {
				wr := SendWR{WRID: uint64(round*peak + i), Opcode: OpWrite, Signaled: true,
					SGEs: sge, RemoteAddr: 0x100000, RKey: mrB.RKey}
				if err := r.qpA.PostSend(wr); err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range pollN(r.a.cq, peak) {
				if c.Status != WCSuccess {
					t.Fatalf("round %d: %+v", round, c)
				}
			}
		}
		d := r.a.dev
		if made := d.wqes.Made(); made < peak || made > 2*peak {
			t.Errorf("pool made %d entries for a peak of %d", made, peak)
		}
		if d.wqes.Len() != d.wqes.Made() {
			t.Errorf("pool holds %d of the %d entries it made", d.wqes.Len(), d.wqes.Made())
		}
	})
	r.s.Run()
}
