package verbs

import (
	"testing"
	"time"

	"migrrdma/internal/fabric"
	"migrrdma/internal/mem"
	"migrrdma/internal/rnic"
	"migrrdma/internal/sim"
)

// TestSteadyStateSendAllocatesNothing pins the library seam of the
// message path: posting through the library (WQE stamped into the
// SQ/RQ ring), the device's shadow-ring CQE writes, and polling into a
// caller-owned buffer allocate nothing per message.
func TestSteadyStateSendAllocatesNothing(t *testing.T) {
	s := sim.New(5)
	net := fabric.New(s, fabric.Config{})
	mk := func(name string) *Context {
		as := mem.NewAddressSpace()
		as.Map(0x100000, 1<<20, "arena")
		return OpenDevice(rnic.NewDevice(net, fabric.NewMux(net, name), name, rnic.Config{}), as)
	}
	ctxA, ctxB := mk("hostA"), mk("hostB")
	var qpA, qpB *QP
	var cqA, cqB *CQ
	var mrA, mrB *MR
	s.Go("setup", func() {
		pdA, pdB := ctxA.AllocPD(), ctxB.AllocPD()
		cqA, cqB = ctxA.CreateCQ(64, nil), ctxB.CreateCQ(64, nil)
		qpA = ctxA.CreateQP(pdA, rnic.RC, cqA, cqA, nil, rnic.QPCaps{})
		qpB = ctxB.CreateQP(pdB, rnic.RC, cqB, cqB, nil, rnic.QPCaps{})
		for _, c := range []struct {
			qp   *QP
			node string
			rqpn uint32
		}{{qpA, "hostB", qpB.QPN()}, {qpB, "hostA", qpA.QPN()}} {
			for _, a := range []rnic.ModifyAttr{{State: rnic.StateInit},
				{State: rnic.StateRTR, RemoteNode: c.node, RemoteQPN: c.rqpn}, {State: rnic.StateRTS}} {
				if err := c.qp.Modify(a); err != nil {
					t.Error(err)
				}
			}
		}
		var err error
		if mrA, err = ctxA.RegMR(pdA, 0x100000, 1<<20, rnic.AccessLocalWrite); err != nil {
			t.Error(err)
		}
		if mrB, err = ctxB.RegMR(pdB, 0x100000, 1<<20, rnic.AccessLocalWrite); err != nil {
			t.Error(err)
		}
	})
	s.Run()
	sgeA := []rnic.SGE{{Addr: 0x100000, Len: 2048, LKey: mrA.LKey()}}
	sgeB := []rnic.SGE{{Addr: 0x100000, Len: 4096, LKey: mrB.LKey()}}
	var wc [4]rnic.CQE
	id := uint64(0)
	send := func() {
		id++
		if err := qpB.PostRecv(rnic.RecvWR{WRID: id, SGEs: sgeB}); err != nil {
			t.Fatal(err)
		}
		if err := qpA.PostSend(rnic.SendWR{WRID: id, Opcode: rnic.OpSend, Signaled: true, SGEs: sgeA}); err != nil {
			t.Fatal(err)
		}
		s.RunFor(50 * time.Microsecond)
		if n := cqA.PollInto(wc[:]); n != 1 || wc[0].WRID != id || wc[0].Status != rnic.WCSuccess {
			t.Fatalf("send %d: polled %d, %+v", id, n, wc[0])
		}
		if n := cqB.PollInto(wc[:]); n != 1 || wc[0].WRID != id || wc[0].ByteLen != 2048 {
			t.Fatalf("recv %d: polled %d, %+v", id, n, wc[0])
		}
	}
	for i := 0; i < 200; i++ { // wraps the 64-slot CQ rings and 128-slot WQ rings
		send()
	}
	if n := testing.AllocsPerRun(200, send); n != 0 {
		t.Fatalf("steady-state RC SEND through the library: %v allocs per message, want 0", n)
	}
}
