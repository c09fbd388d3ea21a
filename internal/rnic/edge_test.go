package rnic

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"migrrdma/internal/fabric"
	"migrrdma/internal/metrics"
)

func TestMultiSGEGatherScatter(t *testing.T) {
	r := newRig(t, Config{}, func(r *rig) {
		mrA := r.a.regMR(t, 0x100000, 64<<10)
		mrB := r.b.regMR(t, 0x100000, 64<<10)
		// Three disjoint source pieces gathered into one SEND…
		r.a.as.Write(0x100000, []byte("AAAA"))
		r.a.as.Write(0x102000, []byte("BBBBBB"))
		r.a.as.Write(0x104000, []byte("CC"))
		// …scattered across two destination pieces.
		r.qpB.PostRecv(RecvWR{WRID: 1, SGEs: []SGE{
			{Addr: 0x108000, Len: 5, LKey: mrB.LKey},
			{Addr: 0x10A000, Len: 64, LKey: mrB.LKey},
		}})
		err := r.qpA.PostSend(SendWR{WRID: 2, Opcode: OpSend, Signaled: true, SGEs: []SGE{
			{Addr: 0x100000, Len: 4, LKey: mrA.LKey},
			{Addr: 0x102000, Len: 6, LKey: mrA.LKey},
			{Addr: 0x104000, Len: 2, LKey: mrA.LKey},
		}})
		if err != nil {
			t.Error(err)
			return
		}
		rc := pollN(r.b.cq, 1)[0]
		if rc.ByteLen != 12 {
			t.Errorf("byte_len = %d, want 12", rc.ByteLen)
		}
		var first [5]byte
		var second [7]byte
		r.b.as.Read(0x108000, first[:])
		r.b.as.Read(0x10A000, second[:])
		if got := string(first[:]) + string(second[:]); got != "AAAABBBBBBCC" {
			t.Errorf("scattered payload %q", got)
		}
	})
	r.s.Run()
}

func TestCQOverrunFlagged(t *testing.T) {
	r := newRig(t, Config{}, func(r *rig) {
		tiny := r.a.dev.CreateCQ(2, nil)
		qpA2 := r.a.dev.CreateQP(r.a.pd, RC, tiny, tiny, nil, QPCaps{MaxSend: 16})
		qpB2 := r.b.dev.CreateQP(r.b.pd, RC, r.b.cq, r.b.cq, nil, QPCaps{})
		connectRC(t, qpA2, "hostB", qpB2.QPN)
		connectRC(t, qpB2, "hostA", qpA2.QPN)
		mrA := r.a.regMR(t, 0x100000, 4096)
		mrB := r.b.regMR(t, 0x100000, 4096)
		for i := 0; i < 6; i++ {
			qpA2.PostSend(SendWR{WRID: uint64(i), Opcode: OpWrite, Signaled: true,
				SGEs:       []SGE{{Addr: 0x100000, Len: 8, LKey: mrA.LKey}},
				RemoteAddr: 0x100000, RKey: mrB.RKey})
		}
		r.s.Sleep(2 * time.Millisecond)
		if !tiny.Overrun {
			t.Error("overfilled CQ not flagged as overrun")
		}
		if tiny.Len() != 2 {
			t.Errorf("CQ holds %d entries, want its capacity 2", tiny.Len())
		}
	})
	r.s.Run()
}

func TestErrorFlushesPostedRecvs(t *testing.T) {
	r := newRig(t, Config{}, func(r *rig) {
		mrB := r.b.regMR(t, 0x100000, 4096)
		for i := 0; i < 3; i++ {
			r.qpB.PostRecv(RecvWR{WRID: uint64(10 + i), SGEs: []SGE{{Addr: 0x100000, Len: 64, LKey: mrB.LKey}}})
		}
		r.qpB.Modify(ModifyAttr{State: StateError})
		flushed := pollN(r.b.cq, 3)
		for _, e := range flushed {
			if e.Status != WCWRFlushErr {
				t.Errorf("flush CQE status %v", e.Status)
			}
		}
		if r.qpB.RecvQueueDepth() != 0 {
			t.Errorf("RQ depth %d after flush", r.qpB.RecvQueueDepth())
		}
	})
	r.s.Run()
}

func TestSGEOwnershipAfterPost(t *testing.T) {
	// The caller may reuse its SGE slice immediately after PostSend
	// returns (the device snapshots the gather list).
	r := newRig(t, Config{}, func(r *rig) {
		mrA := r.a.regMR(t, 0x100000, 8192)
		mrB := r.b.regMR(t, 0x100000, 8192)
		r.a.as.Write(0x100000, []byte("keep"))
		sges := []SGE{{Addr: 0x100000, Len: 4, LKey: mrA.LKey}}
		// Drop and delay the first transmission so the retransmission
		// path must re-read the gather list after we clobber the slice.
		r.net.SetLoss("hostA", 1.0)
		r.qpA.PostSend(SendWR{WRID: 1, Opcode: OpWrite, Signaled: true,
			SGEs: sges, RemoteAddr: 0x100000, RKey: mrB.RKey})
		sges[0] = SGE{Addr: 0x101000, Len: 4, LKey: mrA.LKey} // clobber
		r.s.Sleep(200 * time.Microsecond)
		r.net.SetLoss("hostA", 0)
		if c := pollN(r.a.cq, 1)[0]; c.Status != WCSuccess {
			t.Errorf("status %v", c.Status)
		}
		var buf [4]byte
		r.b.as.Read(0x100000, buf[:])
		if !bytes.Equal(buf[:], []byte("keep")) {
			t.Errorf("payload %q — device read the clobbered SGE slice", buf)
		}
	})
	r.s.Run()
}

func TestZeroLengthSend(t *testing.T) {
	r := newRig(t, Config{}, func(r *rig) {
		mrB := r.b.regMR(t, 0x100000, 4096)
		r.qpB.PostRecv(RecvWR{WRID: 5, SGEs: []SGE{{Addr: 0x100000, Len: 64, LKey: mrB.LKey}}})
		if err := r.qpA.PostSend(SendWR{WRID: 4, Opcode: OpSend, Signaled: true}); err != nil {
			t.Error(err)
			return
		}
		rc := pollN(r.b.cq, 1)[0]
		if rc.Status != WCSuccess || rc.ByteLen != 0 {
			t.Errorf("zero-length recv CQE %+v", rc)
		}
	})
	r.s.Run()
}

func TestRNRRetryLimitErrorsOut(t *testing.T) {
	// With a bounded rnr_retry, a receiver that never posts RECVs
	// eventually fails the send with RNR_RETRY_EXC_ERR.
	r := newRig(t, Config{RNRRetries: 3}, func(r *rig) {
		mrA := r.a.regMR(t, 0x100000, 4096)
		r.b.regMR(t, 0x100000, 4096)
		r.qpA.PostSend(SendWR{WRID: 9, Opcode: OpSend, Signaled: true,
			SGEs: []SGE{{Addr: 0x100000, Len: 8, LKey: mrA.LKey}}})
		c := pollN(r.a.cq, 1)[0]
		if c.Status != WCRNRRetryExceeded {
			t.Errorf("status = %v, want RNR_RETRY_EXC_ERR", c.Status)
		}
		if r.qpA.State() != StateError {
			t.Errorf("QP state %v, want ERR", r.qpA.State())
		}
	})
	r.s.Run()
}

// TestFrameDeliveredInsideHandlePacket: a frame that arrives while the
// engine task is handling another (the cqe listener injects a duplicate
// of the SEND being completed) is queued — its wake is dropped, the task is
// running — and the same engine run handles it.
func TestFrameDeliveredInsideHandlePacket(t *testing.T) {
	queuedAtInjection := -1
	r := newRig(t, Config{}, func(r *rig) {
		mrA := r.a.regMR(t, 0x100000, 4096)
		mrB := r.b.regMR(t, 0x100000, 4096)
		r.b.dev.Metrics().Listen(func(e metrics.Event) error {
			if e.Kind != "cqe" || e.Node != "hostB" || Opcode(e.Op) != OpRecv || queuedAtInjection >= 0 {
				return nil
			}
			dup := packet{Type: ptData, DstQPN: r.qpB.QPN, SrcQPN: r.qpA.QPN, PSN: 0, Last: true,
				Opcode: OpSend, DLen: 4, Payload: []byte("ping")}
			data := dup.encode()
			r.b.dev.onFrame(fabric.Frame{Src: "hostA", Dst: "hostB", Port: PortRDMA,
				Size: wireOverhead + len(data), Data: data})
			queuedAtInjection = r.b.dev.rxq.Len()
			return nil
		})
		r.a.as.Write(0x100000, []byte("ping"))
		r.qpB.PostRecv(RecvWR{WRID: 1, SGEs: []SGE{{Addr: 0x100000, Len: 64, LKey: mrB.LKey}}})
		if err := r.qpA.PostSend(SendWR{WRID: 2, Opcode: OpSend, Signaled: true,
			SGEs: []SGE{{Addr: 0x100000, Len: 4, LKey: mrA.LKey}}}); err != nil {
			t.Error(err)
		}
		pollN(r.a.cq, 1)
	})
	r.s.Run()
	if queuedAtInjection != 1 {
		t.Fatalf("rx queue held %d packets right after the injection, want 1 (queued, not handled re-entrantly)", queuedAtInjection)
	}
	if n := r.b.dev.rxq.Len(); n != 0 {
		t.Fatalf("%d packets left in the rx queue", n)
	}
	dups := r.b.dev.Metrics().Counter("rnic", "duplicated_packets", metrics.L("node", "hostB")).Value()
	if dups != 1 || r.b.cq.Len() != 1 {
		t.Fatalf("duplicated_packets = %d, recv CQEs = %d: the injected duplicate was not handled once", dups, r.b.cq.Len())
	}
}

// TestCloseWithQueuedPackets: Close between a frame's arrival and the
// engine's dispatch leaves the packets where they are — the engine runs,
// sees the device closed and returns — and later frames are dropped at
// the door.
func TestCloseWithQueuedPackets(t *testing.T) {
	r := newRig(t, Config{}, func(r *rig) {
		ack := packet{Type: ptAck, DstQPN: r.qpB.QPN, SrcQPN: r.qpA.QPN, AckPSN: 0}
		frame := func() fabric.Frame {
			data := ack.encode()
			return fabric.Frame{Src: "hostA", Dst: "hostB", Port: PortRDMA, Size: wireOverhead + len(data), Data: data}
		}
		r.b.dev.onFrame(frame())
		r.b.dev.onFrame(frame())
		r.b.dev.Close()
		r.b.dev.onFrame(frame())
	})
	r.s.Run()
	if n := r.b.dev.rxq.Len(); n != 2 {
		t.Fatalf("rx queue holds %d packets after Close, want the 2 that were queued before it", n)
	}
	if got := r.b.dev.mRxFrames.Value(); got != 2 {
		t.Fatalf("rx_frames = %d, want 2: a closed device counts no arrivals", got)
	}
}

// TestQPLabelMatchesFmt: the hand-rendered QPN label is the %#06x every
// golden snapshot was recorded with.
func TestQPLabelMatchesFmt(t *testing.T) {
	d := &Device{node: "n"}
	for _, qpn := range []uint32{0, 0x1, 0x100, 0x11b, 0xabcde, 0xffffff, 0x1234567} {
		want := metrics.L("node", "n", "qpn", fmt.Sprintf("%#06x", qpn))
		if got := d.qpLabels(qpn); got != want {
			t.Errorf("qpLabels(%#x) = %v, want %v", qpn, got, want)
		}
	}
}

// TestCreateQPAllocations pins the per-QP control-path cost: the QP, its
// rendered labels and one key buffer for its seven counters, whose
// storage comes from the registry's slab — no maps, send ring or timer
// callbacks until they are used.
func TestCreateQPAllocations(t *testing.T) {
	var allocs float64
	r := newRig(t, Config{}, func(r *rig) {
		allocs = testing.AllocsPerRun(1000, func() {
			r.a.dev.CreateQP(r.a.pd, RC, r.a.cq, r.a.cq, nil, QPCaps{})
		})
	})
	r.s.Run()
	if allocs > 3 {
		t.Fatalf("CreateQP allocates %.0f times, want at most 3", allocs)
	}
}
