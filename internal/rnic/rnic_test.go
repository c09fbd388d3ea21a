package rnic

import (
	"bytes"
	"testing"
	"time"

	"migrrdma/internal/fabric"
	"migrrdma/internal/mem"
	"migrrdma/internal/metrics"
	"migrrdma/internal/sim"
)

// host bundles one simulated server for tests.
type host struct {
	dev *Device
	as  *mem.AddressSpace
	pd  *PD
	cq  *CQ
}

// rig is a two-host testbed with a connected RC QP pair.
type rig struct {
	s        *sim.Scheduler
	net      *fabric.Network
	reg      *metrics.Registry // the fabric's
	a, b     *host
	qpA, qpB *QP
}

// newRig builds the testbed. Control-path calls sleep, so construction
// happens inside a managed proc driven by setup().
func newRig(t *testing.T, cfg Config, setup func(*rig)) *rig {
	t.Helper()
	s := sim.New(42)
	reg := metrics.New(s.Now)
	net := fabric.New(s, fabric.Config{Metrics: reg})
	r := &rig{s: s, net: net, reg: reg}
	mk := func(name string) *host {
		mux := fabric.NewMux(net, name)
		h := &host{dev: NewDevice(net, mux, name, cfg), as: mem.NewAddressSpace()}
		if _, err := h.as.Map(0x100000, 1<<20, "arena"); err != nil {
			t.Fatal(err)
		}
		return h
	}
	r.a, r.b = mk("hostA"), mk("hostB")
	s.Go("setup", func() {
		for _, h := range []*host{r.a, r.b} {
			h.pd = h.dev.AllocPD()
			h.cq = h.dev.CreateCQ(65536, nil)
		}
		r.qpA = r.a.dev.CreateQP(r.a.pd, RC, r.a.cq, r.a.cq, nil, QPCaps{MaxSend: 256, MaxRecv: 256})
		r.qpB = r.b.dev.CreateQP(r.b.pd, RC, r.b.cq, r.b.cq, nil, QPCaps{MaxSend: 256, MaxRecv: 256})
		connectRC(t, r.qpA, "hostB", r.qpB.QPN)
		connectRC(t, r.qpB, "hostA", r.qpA.QPN)
		setup(r)
	})
	return r
}

func connectRC(t *testing.T, qp *QP, node string, rqpn uint32) {
	t.Helper()
	for _, a := range []ModifyAttr{
		{State: StateInit},
		{State: StateRTR, RemoteNode: node, RemoteQPN: rqpn},
		{State: StateRTS},
	} {
		if err := qp.Modify(a); err != nil {
			t.Fatalf("modify to %v: %v", a.State, err)
		}
	}
}

// regMR registers length bytes at addr with full access.
func (h *host) regMR(t *testing.T, addr mem.Addr, length uint64) *MR {
	t.Helper()
	mr, err := h.dev.RegMR(h.pd, h.as, addr, length,
		AccessLocalWrite|AccessRemoteRead|AccessRemoteWrite|AccessRemoteAtomic)
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

// pollN polls the CQ until n completions arrive.
func pollN(cq *CQ, n int) []CQE {
	var out []CQE
	for len(out) < n {
		cq.WaitNonEmpty()
		out = append(out, cq.Poll(n-len(out))...)
	}
	return out
}

func TestSendRecvRoundTrip(t *testing.T) {
	var got []byte
	r := newRig(t, Config{}, func(r *rig) {
		mrA := r.a.regMR(t, 0x100000, 8192)
		mrB := r.b.regMR(t, 0x100000, 8192)
		msg := []byte("through the looking glass")
		r.a.as.Write(0x100000, msg)
		r.qpB.PostRecv(RecvWR{WRID: 9, SGEs: []SGE{{Addr: 0x100000, Len: 4096, LKey: mrB.LKey}}})
		if err := r.qpA.PostSend(SendWR{WRID: 1, Opcode: OpSend, Signaled: true,
			SGEs: []SGE{{Addr: 0x100000, Len: uint32(len(msg)), LKey: mrA.LKey}}}); err != nil {
			t.Error(err)
			return
		}
		sc := pollN(r.a.cq, 1)[0]
		if sc.WRID != 1 || sc.Status != WCSuccess {
			t.Errorf("send CQE = %+v", sc)
		}
		rc := pollN(r.b.cq, 1)[0]
		if rc.WRID != 9 || rc.Status != WCSuccess || rc.Opcode != OpRecv || int(rc.ByteLen) != len(msg) {
			t.Errorf("recv CQE = %+v", rc)
		}
		if rc.QPN != r.qpB.QPN {
			t.Errorf("recv CQE QPN = %#x, want local %#x", rc.QPN, r.qpB.QPN)
		}
		got = make([]byte, len(msg))
		r.b.as.Read(0x100000, got)
	})
	r.s.Run()
	if string(got) != "through the looking glass" {
		t.Fatalf("received %q", got)
	}
}

// TestRTOTimersTakeOneHeapSlot: the retransmission timers of every QP
// on a device ride one lane, so n QPs with sends outstanding hold one
// timer-heap entry between them, and each still times out one RTO after
// its send went out.
func TestRTOTimersTakeOneHeapSlot(t *testing.T) {
	const n = 64
	var heap int
	var retries []int
	var qps []*QP
	r := newRig(t, Config{}, func(r *rig) {
		mrA := r.a.regMR(t, 0x100000, 1<<20)
		for i := 0; i < n; i++ {
			qa := r.a.dev.CreateQP(r.a.pd, RC, r.a.cq, r.a.cq, nil, QPCaps{})
			qb := r.b.dev.CreateQP(r.b.pd, RC, r.b.cq, r.b.cq, nil, QPCaps{})
			connectRC(t, qa, "hostB", qb.QPN)
			connectRC(t, qb, "hostA", qa.QPN)
			qps = append(qps, qa)
		}
		r.net.SetPartitioned("hostB", true) // no ACK comes back
		for i, qp := range qps {
			if err := qp.PostSend(SendWR{WRID: uint64(i), Opcode: OpSend, Signaled: true,
				SGEs: []SGE{{Addr: 0x100000, Len: 1024, LKey: mrA.LKey}}}); err != nil {
				t.Error(err)
				return
			}
		}
		r.s.Sleep(rto / 2) // every send is on the wire, none timed out
		heap = r.s.TimerHeapLen()
		r.s.Sleep(rto/2 + 20*time.Microsecond) // past every QP's deadline
		for _, qp := range qps {
			retries = append(retries, qp.retries)
		}
	})
	r.s.RunFor(time.Second)
	if heap != 1 {
		t.Errorf("%d QPs with sends outstanding hold %d timer-heap entries, want 1", n, heap)
	}
	for i, got := range retries {
		if got != 1 {
			t.Fatalf("QP %d timed out %d times one RTO after its send, want 1", i, got)
		}
	}
}

func TestWriteLargeMessage(t *testing.T) {
	const size = 64 << 10 // 16 fragments at 4 KB MTU
	r := newRig(t, Config{}, func(r *rig) {
		mrA := r.a.regMR(t, 0x100000, size)
		mrB := r.b.regMR(t, 0x100000, size)
		src := make([]byte, size)
		for i := range src {
			src[i] = byte(i * 31)
		}
		r.a.as.Write(0x100000, src)
		err := r.qpA.PostSend(SendWR{WRID: 2, Opcode: OpWrite, Signaled: true,
			SGEs:       []SGE{{Addr: 0x100000, Len: size, LKey: mrA.LKey}},
			RemoteAddr: 0x100000, RKey: mrB.RKey})
		if err != nil {
			t.Error(err)
			return
		}
		c := pollN(r.a.cq, 1)[0]
		if c.Status != WCSuccess {
			t.Errorf("write CQE status %v", c.Status)
		}
		dst := make([]byte, size)
		r.b.as.Read(0x100000, dst)
		if !bytes.Equal(src, dst) {
			t.Error("WRITE payload corrupted")
		}
	})
	r.s.Run()
}

func TestWriteWithImmConsumesRecv(t *testing.T) {
	r := newRig(t, Config{}, func(r *rig) {
		mrA := r.a.regMR(t, 0x100000, 4096)
		mrB := r.b.regMR(t, 0x100000, 4096)
		r.qpB.PostRecv(RecvWR{WRID: 77, SGEs: []SGE{{Addr: 0x101000, Len: 0, LKey: mrB.LKey}}})
		r.qpA.PostSend(SendWR{WRID: 3, Opcode: OpWriteImm, Signaled: true, Imm: 0xfeed,
			SGEs:       []SGE{{Addr: 0x100000, Len: 128, LKey: mrA.LKey}},
			RemoteAddr: 0x100000, RKey: mrB.RKey})
		rc := pollN(r.b.cq, 1)[0]
		if rc.WRID != 77 || !rc.HasImm || rc.Imm != 0xfeed {
			t.Errorf("recv CQE = %+v", rc)
		}
	})
	r.s.Run()
}

func TestReadRoundTrip(t *testing.T) {
	r := newRig(t, Config{}, func(r *rig) {
		mrA := r.a.regMR(t, 0x100000, 64<<10)
		mrB := r.b.regMR(t, 0x100000, 64<<10)
		want := bytes.Repeat([]byte("remote"), 3000) // 18 KB, multi-fragment
		r.b.as.Write(0x100000, want)
		r.qpA.PostSend(SendWR{WRID: 4, Opcode: OpRead, Signaled: true,
			SGEs:       []SGE{{Addr: 0x108000, Len: uint32(len(want)), LKey: mrA.LKey}},
			RemoteAddr: 0x100000, RKey: mrB.RKey})
		c := pollN(r.a.cq, 1)[0]
		if c.Status != WCSuccess || c.Opcode != OpRead {
			t.Errorf("read CQE = %+v", c)
		}
		got := make([]byte, len(want))
		r.a.as.Read(0x108000, got)
		if !bytes.Equal(got, want) {
			t.Error("READ payload corrupted")
		}
	})
	r.s.Run()
}

func TestAtomics(t *testing.T) {
	r := newRig(t, Config{}, func(r *rig) {
		mrA := r.a.regMR(t, 0x100000, 4096)
		mrB := r.b.regMR(t, 0x100000, 4096)
		r.b.as.WriteU64(0x100008, 100)
		// FETCH_ADD +5.
		r.qpA.PostSend(SendWR{WRID: 5, Opcode: OpFetchAdd, Signaled: true, CompareAdd: 5,
			SGEs:       []SGE{{Addr: 0x100000, Len: 8, LKey: mrA.LKey}},
			RemoteAddr: 0x100008, RKey: mrB.RKey})
		pollN(r.a.cq, 1)
		orig, _ := r.a.as.ReadU64(0x100000)
		if orig != 100 {
			t.Errorf("FETCH_ADD returned %d, want 100", orig)
		}
		v, _ := r.b.as.ReadU64(0x100008)
		if v != 105 {
			t.Errorf("remote value %d, want 105", v)
		}
		// CMP_SWAP 105 → 42 (matches).
		r.qpA.PostSend(SendWR{WRID: 6, Opcode: OpCompSwap, Signaled: true, CompareAdd: 105, Swap: 42,
			SGEs:       []SGE{{Addr: 0x100000, Len: 8, LKey: mrA.LKey}},
			RemoteAddr: 0x100008, RKey: mrB.RKey})
		pollN(r.a.cq, 1)
		v, _ = r.b.as.ReadU64(0x100008)
		if v != 42 {
			t.Errorf("after CMP_SWAP remote = %d, want 42", v)
		}
		// CMP_SWAP with non-matching compare leaves the value.
		r.qpA.PostSend(SendWR{WRID: 7, Opcode: OpCompSwap, Signaled: true, CompareAdd: 1, Swap: 0,
			SGEs:       []SGE{{Addr: 0x100000, Len: 8, LKey: mrA.LKey}},
			RemoteAddr: 0x100008, RKey: mrB.RKey})
		pollN(r.a.cq, 1)
		v, _ = r.b.as.ReadU64(0x100008)
		if v != 42 {
			t.Errorf("failed CMP_SWAP changed remote to %d", v)
		}
	})
	r.s.Run()
}

func TestRNRRecovery(t *testing.T) {
	r := newRig(t, Config{}, func(r *rig) {
		checkWQEs(t, r)
		mrA := r.a.regMR(t, 0x100000, 4096)
		mrB := r.b.regMR(t, 0x100000, 4096)
		r.a.as.Write(0x100000, []byte("eventually"))
		// Send before any RECV is posted: responder RNR-NAKs.
		r.qpA.PostSend(SendWR{WRID: 8, Opcode: OpSend, Signaled: true,
			SGEs: []SGE{{Addr: 0x100000, Len: 10, LKey: mrA.LKey}}})
		// Post the RECV after a while; the retry must deliver.
		r.s.Sleep(300 * time.Microsecond)
		r.qpB.PostRecv(RecvWR{WRID: 80, SGEs: []SGE{{Addr: 0x100800, Len: 64, LKey: mrB.LKey}}})
		rc := pollN(r.b.cq, 1)[0]
		if rc.Status != WCSuccess {
			t.Errorf("recv after RNR: %+v", rc)
		}
		sc := pollN(r.a.cq, 1)[0]
		if sc.Status != WCSuccess {
			t.Errorf("send after RNR: %+v", sc)
		}
		var buf [10]byte
		r.b.as.Read(0x100800, buf[:])
		if string(buf[:]) != "eventually" {
			t.Errorf("payload %q", buf)
		}
	})
	r.s.Run()
}

// TestRNRRecoveryMultiFragment is the multi-fragment twin of
// TestRNRRecovery. The responder reassembles the whole message before
// discovering no RECV is posted, so the reassembly buffer already holds
// every fragment when the RNR retry arrives — the retried fragments are
// all "already held" duplicates, and the responder must still retry
// delivery from the held buffer instead of swallowing the final
// fragment (which would pin the message undelivered forever while the
// requester retries into the void).
func TestRNRRecoveryMultiFragment(t *testing.T) {
	const size = 8192 // 2 fragments at the 4 KB default MTU
	r := newRig(t, Config{}, func(r *rig) {
		checkWQEs(t, r)
		mrA := r.a.regMR(t, 0x100000, size)
		mrB := r.b.regMR(t, 0x110000, size)
		src := make([]byte, size)
		for i := range src {
			src[i] = byte(i * 13)
		}
		r.a.as.Write(0x100000, src)
		// Send before any RECV is posted: responder RNR-NAKs after the
		// message is fully reassembled.
		r.qpA.PostSend(SendWR{WRID: 8, Opcode: OpSend, Signaled: true,
			SGEs: []SGE{{Addr: 0x100000, Len: size, LKey: mrA.LKey}}})
		r.s.Sleep(300 * time.Microsecond)
		r.qpB.PostRecv(RecvWR{WRID: 80, SGEs: []SGE{{Addr: 0x110000, Len: size, LKey: mrB.LKey}}})
		rc := pollN(r.b.cq, 1)[0]
		if rc.Status != WCSuccess || int(rc.ByteLen) != size {
			t.Errorf("recv after RNR: %+v", rc)
		}
		sc := pollN(r.a.cq, 1)[0]
		if sc.Status != WCSuccess {
			t.Errorf("send after RNR: %+v", sc)
		}
		got := make([]byte, size)
		r.b.as.Read(0x110000, got)
		if !bytes.Equal(got, src) {
			t.Error("multi-fragment payload corrupted across RNR retry")
		}
	})
	r.s.Run()
}

func TestLossRecoveryOrdering(t *testing.T) {
	// 10% loss in both directions; every message must still complete,
	// in order, exactly once, with intact content.
	const msgs = 200
	r := newRig(t, Config{}, func(r *rig) {
		checkWQEs(t, r)
		mrA := r.a.regMR(t, 0x100000, 1<<20)
		mrB := r.b.regMR(t, 0x100000, 1<<20)
		r.net.SetLoss("hostA", 0.1)
		r.net.SetLoss("hostB", 0.1)
		for i := 0; i < msgs; i++ {
			r.qpB.PostRecv(RecvWR{WRID: uint64(1000 + i),
				SGEs: []SGE{{Addr: 0x100000 + mem.Addr(i*4096), Len: 4096, LKey: mrB.LKey}}})
		}
		r.s.Go("sender", func() {
			for i := 0; i < msgs; i++ {
				payload := []byte{byte(i), byte(i >> 8), 0xAB}
				r.a.as.Write(0x100000, payload)
				for {
					err := r.qpA.PostSend(SendWR{WRID: uint64(i), Opcode: OpSend, Signaled: true,
						SGEs: []SGE{{Addr: 0x100000, Len: 3, LKey: mrA.LKey}}})
					if err == nil {
						break
					}
					r.s.Sleep(50 * time.Microsecond) // SQ full: wait out retransmissions
				}
				// Serialize sends so the source buffer can be reused.
				c := pollN(r.a.cq, 1)[0]
				if c.WRID != uint64(i) || c.Status != WCSuccess {
					t.Errorf("send %d: CQE %+v", i, c)
					return
				}
			}
		})
		recv := pollN(r.b.cq, msgs)
		for i, c := range recv {
			if c.WRID != uint64(1000+i) {
				t.Fatalf("completion %d has WRID %d: reordered or dropped", i, c.WRID)
			}
			var buf [3]byte
			r.b.as.Read(0x100000+mem.Addr(i*4096), buf[:])
			if buf[0] != byte(i) || buf[1] != byte(i>>8) || buf[2] != 0xAB {
				t.Fatalf("message %d corrupted: % x", i, buf)
			}
		}
	})
	r.s.Run()
}

func TestRemoteProtectionError(t *testing.T) {
	r := newRig(t, Config{}, func(r *rig) {
		mrA := r.a.regMR(t, 0x100000, 4096)
		r.b.regMR(t, 0x100000, 4096)
		// Bogus rkey: responder must NAK, requester must error the WQE.
		r.qpA.PostSend(SendWR{WRID: 66, Opcode: OpWrite, Signaled: true,
			SGEs:       []SGE{{Addr: 0x100000, Len: 16, LKey: mrA.LKey}},
			RemoteAddr: 0x100000, RKey: 0xdeadbeef})
		c := pollN(r.a.cq, 1)[0]
		if c.Status != WCRemoteAccessErr {
			t.Errorf("status = %v, want REM_ACCESS_ERR", c.Status)
		}
		if r.qpA.State() != StateError {
			t.Errorf("QP state = %v, want ERR", r.qpA.State())
		}
	})
	r.s.Run()
}

func TestOutOfRangeWriteRejected(t *testing.T) {
	r := newRig(t, Config{}, func(r *rig) {
		mrA := r.a.regMR(t, 0x100000, 4096)
		mrB := r.b.regMR(t, 0x100000, 4096) // one page only
		r.qpA.PostSend(SendWR{WRID: 67, Opcode: OpWrite, Signaled: true,
			SGEs:       []SGE{{Addr: 0x100000, Len: 4096, LKey: mrA.LKey}},
			RemoteAddr: 0x100800, RKey: mrB.RKey}) // spills past the MR end
		c := pollN(r.a.cq, 1)[0]
		if c.Status != WCRemoteAccessErr {
			t.Errorf("status = %v, want REM_ACCESS_ERR", c.Status)
		}
	})
	r.s.Run()
}

func TestUnsignaledCompletions(t *testing.T) {
	r := newRig(t, Config{}, func(r *rig) {
		mrA := r.a.regMR(t, 0x100000, 4096)
		mrB := r.b.regMR(t, 0x100000, 4096)
		for i := 0; i < 4; i++ {
			r.qpA.PostSend(SendWR{WRID: uint64(i), Opcode: OpWrite, Signaled: i == 3,
				SGEs:       []SGE{{Addr: 0x100000, Len: 8, LKey: mrA.LKey}},
				RemoteAddr: 0x100000, RKey: mrB.RKey})
		}
		c := pollN(r.a.cq, 1)[0]
		if c.WRID != 3 {
			t.Errorf("CQE WRID = %d, want 3 (only signaled)", c.WRID)
		}
		r.s.Sleep(time.Millisecond)
		if r.a.cq.Len() != 0 {
			t.Errorf("unexpected extra completions: %d", r.a.cq.Len())
		}
		if r.qpA.SendQueueDepth() != 0 {
			t.Errorf("outstanding = %d after all acked", r.qpA.SendQueueDepth())
		}
	})
	r.s.Run()
}

func TestUDSendRecv(t *testing.T) {
	s := sim.New(42)
	net := fabric.New(s, fabric.Config{})
	muxA, muxB := fabric.NewMux(net, "hostA"), fabric.NewMux(net, "hostB")
	devA, devB := NewDevice(net, muxA, "hostA", Config{}), NewDevice(net, muxB, "hostB", Config{})
	asA, asB := mem.NewAddressSpace(), mem.NewAddressSpace()
	asA.Map(0x100000, 8192, "a")
	asB.Map(0x100000, 8192, "b")
	s.Go("setup", func() {
		pdA, pdB := devA.AllocPD(), devB.AllocPD()
		cqA, cqB := devA.CreateCQ(64, nil), devB.CreateCQ(64, nil)
		qpA := devA.CreateQP(pdA, UD, cqA, cqA, nil, QPCaps{})
		qpB := devB.CreateQP(pdB, UD, cqB, cqB, nil, QPCaps{})
		qpA.Modify(ModifyAttr{State: StateInit})
		qpA.Modify(ModifyAttr{State: StateRTR})
		qpA.Modify(ModifyAttr{State: StateRTS})
		qpB.Modify(ModifyAttr{State: StateInit})
		qpB.Modify(ModifyAttr{State: StateRTR})
		qpB.Modify(ModifyAttr{State: StateRTS})
		mrA, _ := devA.RegMR(pdA, asA, 0x100000, 8192, AccessLocalWrite)
		mrB, _ := devB.RegMR(pdB, asB, 0x100000, 8192, AccessLocalWrite)
		asA.Write(0x100000, []byte("datagram"))
		qpB.PostRecv(RecvWR{WRID: 11, SGEs: []SGE{{Addr: 0x101000, Len: 256, LKey: mrB.LKey}}})
		if err := qpA.PostSend(SendWR{WRID: 10, Opcode: OpSend, Signaled: true,
			SGEs:       []SGE{{Addr: 0x100000, Len: 8, LKey: mrA.LKey}},
			RemoteNode: "hostB", RemoteQPN: qpB.QPN}); err != nil {
			t.Error(err)
			return
		}
		rc := pollN(cqB, 1)[0]
		if rc.SrcQP != qpA.QPN {
			t.Errorf("SrcQP = %#x, want %#x", rc.SrcQP, qpA.QPN)
		}
		var buf [8]byte
		asB.Read(0x101000, buf[:])
		if string(buf[:]) != "datagram" {
			t.Errorf("payload %q", buf)
		}
		sc := pollN(cqA, 1)[0]
		if sc.Status != WCSuccess {
			t.Errorf("UD send CQE %+v", sc)
		}
	})
	s.Run()
}

func TestCompletionChannelEvents(t *testing.T) {
	r := newRig(t, Config{}, func(r *rig) {
		comp := r.b.dev.CreateCompChannel()
		evCQ := r.b.dev.CreateCQ(64, comp)
		qpB2 := r.b.dev.CreateQP(r.b.pd, RC, evCQ, evCQ, nil, QPCaps{})
		qpA2 := r.a.dev.CreateQP(r.a.pd, RC, r.a.cq, r.a.cq, nil, QPCaps{})
		connectRC(t, qpA2, "hostB", qpB2.QPN)
		connectRC(t, qpB2, "hostA", qpA2.QPN)
		mrA := r.a.regMR(t, 0x100000, 16<<10)
		mrB := r.b.regMR(t, 0x100000, 16<<10)
		evCQ.ReqNotify()
		if err := qpB2.PostRecv(RecvWR{WRID: 21, SGEs: []SGE{{Addr: 0x102000, Len: 64, LKey: mrB.LKey}}}); err != nil {
			t.Error(err)
			return
		}
		qpA2.PostSend(SendWR{WRID: 20, Opcode: OpSend, Signaled: true,
			SGEs: []SGE{{Addr: 0x100000, Len: 16, LKey: mrA.LKey}}})
		evCQ.WaitNonEmpty()
		// The completion that made the CQ non-empty fired the event.
		cq, ok := comp.TryGet()
		if !ok || cq != evCQ {
			t.Errorf("event %v, %v: want one for the CQ", cq, ok)
		}
		if got := cq.Poll(10); len(got) != 1 || got[0].WRID != 21 {
			t.Errorf("polled %+v", got)
		}
	})
	r.s.Run()
}

func TestSRQSharedAcrossQPs(t *testing.T) {
	r := newRig(t, Config{}, func(r *rig) {
		srq := r.b.dev.CreateSRQ()
		qpB2 := r.b.dev.CreateQP(r.b.pd, RC, r.b.cq, r.b.cq, srq, QPCaps{})
		qpA2 := r.a.dev.CreateQP(r.a.pd, RC, r.a.cq, r.a.cq, nil, QPCaps{})
		connectRC(t, qpA2, "hostB", qpB2.QPN)
		connectRC(t, qpB2, "hostA", qpA2.QPN)
		mrA := r.a.regMR(t, 0x100000, 16<<10)
		mrB := r.b.regMR(t, 0x100000, 16<<10)
		srq.PostRecv(RecvWR{WRID: 31, SGEs: []SGE{{Addr: 0x103000, Len: 64, LKey: mrB.LKey}}})
		qpA2.PostSend(SendWR{WRID: 30, Opcode: OpSend, Signaled: true,
			SGEs: []SGE{{Addr: 0x100000, Len: 4, LKey: mrA.LKey}}})
		rc := pollN(r.b.cq, 1)[0]
		if rc.WRID != 31 || rc.QPN != qpB2.QPN {
			t.Errorf("SRQ recv CQE %+v", rc)
		}
		if srq.Len() != 0 {
			t.Errorf("SRQ length %d after consumption", srq.Len())
		}
	})
	r.s.Run()
}

func TestMemoryWindowAccess(t *testing.T) {
	r := newRig(t, Config{}, func(r *rig) {
		mrA := r.a.regMR(t, 0x100000, 4096)
		mrB := r.b.regMR(t, 0x100000, 8192)
		mw, err := r.b.dev.BindMW(mrB, 0x101000, 4096, AccessRemoteWrite)
		if err != nil {
			t.Error(err)
			return
		}
		// Write through the window rkey within bounds: OK.
		r.a.as.Write(0x100000, []byte("mw"))
		r.qpA.PostSend(SendWR{WRID: 40, Opcode: OpWrite, Signaled: true,
			SGEs:       []SGE{{Addr: 0x100000, Len: 2, LKey: mrA.LKey}},
			RemoteAddr: 0x101000, RKey: mw.RKey})
		if c := pollN(r.a.cq, 1)[0]; c.Status != WCSuccess {
			t.Errorf("MW write failed: %v", c.Status)
		}
		// Outside the window (but inside the parent MR): rejected.
		qpA2 := r.a.dev.CreateQP(r.a.pd, RC, r.a.cq, r.a.cq, nil, QPCaps{})
		qpB2 := r.b.dev.CreateQP(r.b.pd, RC, r.b.cq, r.b.cq, nil, QPCaps{})
		connectRC(t, qpA2, "hostB", qpB2.QPN)
		connectRC(t, qpB2, "hostA", qpA2.QPN)
		qpA2.PostSend(SendWR{WRID: 41, Opcode: OpWrite, Signaled: true,
			SGEs:       []SGE{{Addr: 0x100000, Len: 2, LKey: mrA.LKey}},
			RemoteAddr: 0x100000, RKey: mw.RKey})
		if c := pollN(r.a.cq, 1)[0]; c.Status != WCRemoteAccessErr {
			t.Errorf("out-of-window write status %v", c.Status)
		}
	})
	r.s.Run()
}

func TestThroughputAtLineRate(t *testing.T) {
	// 64 outstanding 4 KB WRITEs, continuously reposted: goodput should
	// approach 100 Gbps less header overhead.
	const depth, size, rounds = 64, 4096, 20
	var gbps float64
	r := newRig(t, Config{}, func(r *rig) {
		mrA := r.a.regMR(t, 0x100000, 1<<20)
		mrB := r.b.regMR(t, 0x100000, 1<<20)
		start := r.s.Now()
		post := func(id uint64) {
			r.qpA.PostSend(SendWR{WRID: id, Opcode: OpWrite, Signaled: true,
				SGEs:       []SGE{{Addr: 0x100000, Len: size, LKey: mrA.LKey}},
				RemoteAddr: 0x100000, RKey: mrB.RKey})
		}
		for i := 0; i < depth; i++ {
			post(uint64(i))
		}
		done := 0
		for done < depth*rounds {
			for _, c := range pollN(r.a.cq, 1) {
				if c.Status != WCSuccess {
					t.Errorf("CQE %+v", c)
					return
				}
				done++
				if done <= depth*(rounds-1) {
					post(uint64(done + depth))
				}
			}
		}
		elapsed := r.s.Now() - start
		gbps = float64(depth*rounds*size*8) / elapsed.Seconds() / 1e9
	})
	r.s.Run()
	if gbps < 85 || gbps > 100 {
		t.Fatalf("goodput %.1f Gbps, want ≈95 (100 Gbps minus overhead)", gbps)
	}
}

func TestQPSetupLatencyIsMilliseconds(t *testing.T) {
	// The control path must be slow (several hundred µs to ms per QP):
	// that is the premise of RDMA pre-setup (§2.2 challenge 1).
	var elapsed time.Duration
	s := sim.New(1)
	net := fabric.New(s, fabric.Config{})
	mux := fabric.NewMux(net, "h")
	dev := NewDevice(net, mux, "h", Config{})
	s.Go("setup", func() {
		pd := dev.AllocPD()
		start := s.Now()
		cq := dev.CreateCQ(64, nil)
		qp := dev.CreateQP(pd, RC, cq, cq, nil, QPCaps{})
		qp.Modify(ModifyAttr{State: StateInit})
		qp.Modify(ModifyAttr{State: StateRTR, RemoteNode: "h", RemoteQPN: 1})
		qp.Modify(ModifyAttr{State: StateRTS})
		elapsed = s.Now() - start
	})
	s.Run()
	if elapsed < 500*time.Microsecond || elapsed > 5*time.Millisecond {
		t.Fatalf("QP setup took %v, want O(1ms)", elapsed)
	}
}

func TestSparsePhysicalIdentifiers(t *testing.T) {
	// Physical QPNs and keys must not be dense; MigrRDMA's dense virtual
	// keys exist precisely because of this.
	s := sim.New(1)
	net := fabric.New(s, fabric.Config{})
	mux := fabric.NewMux(net, "h")
	dev := NewDevice(net, mux, "h", Config{})
	as := mem.NewAddressSpace()
	as.Map(0x100000, 1<<16, "a")
	s.Go("setup", func() {
		pd := dev.AllocPD()
		cq := dev.CreateCQ(16, nil)
		q1 := dev.CreateQP(pd, RC, cq, cq, nil, QPCaps{})
		q2 := dev.CreateQP(pd, RC, cq, cq, nil, QPCaps{})
		if q2.QPN == q1.QPN+1 {
			t.Error("QPNs are dense; they should be sparse like hardware")
		}
		m1, _ := dev.RegMR(pd, as, 0x100000, 4096, AccessLocalWrite)
		m2, _ := dev.RegMR(pd, as, 0x101000, 4096, AccessLocalWrite)
		if m2.LKey == m1.LKey+1 {
			t.Error("lkeys are dense; they should be sparse like hardware")
		}
	})
	s.Run()
}

func TestPacketEncodeDecodeRoundTrip(t *testing.T) {
	p := &packet{
		Type: ptData, DstQPN: 0xABCDEF, SrcQPN: 0x123456, PSN: 0x777,
		Frag: 3, Last: true, Opcode: OpWriteImm, RemoteAddr: 0xdeadbeef000,
		RKey: 0xc0ffee, DLen: 123456, CompareAdd: 9, Swap: 10,
		Imm: 0x4242, HasImm: true, AckPSN: 0x999, Syndrome: 2,
		Payload: []byte("abc"),
	}
	q, err := decodePacket(p.encode())
	if err != nil {
		t.Fatal(err)
	}
	if q.DstQPN != p.DstQPN || q.SrcQPN != p.SrcQPN || q.PSN != p.PSN ||
		q.Frag != p.Frag || !q.Last || q.Opcode != p.Opcode ||
		q.RemoteAddr != p.RemoteAddr || q.RKey != p.RKey || q.DLen != p.DLen ||
		q.CompareAdd != p.CompareAdd || q.Swap != p.Swap || q.Imm != p.Imm ||
		!q.HasImm || q.AckPSN != p.AckPSN || q.Syndrome != p.Syndrome ||
		!bytes.Equal(q.Payload, p.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", q, p)
	}
}

func TestPSNArithmetic(t *testing.T) {
	if !psnLess(0xFFFFFF, 0) {
		t.Error("wraparound: 0xFFFFFF should be less than 0")
	}
	if psnLess(5, 5) {
		t.Error("psnLess(x,x) must be false")
	}
	if psnLess(10, 3) {
		t.Error("10 < 3 within window")
	}
	if psnAdd(0xFFFFFF, 1) != 0 {
		t.Error("psnAdd does not wrap")
	}
}

func TestSendAndWriteWithImmediate(t *testing.T) {
	r := newRig(t, Config{}, func(r *rig) {
		mrA := r.a.regMR(t, 0x100000, 8192)
		mrB := r.b.regMR(t, 0x100000, 8192)
		msg := []byte("imm payload")
		r.a.as.Write(0x100000, msg)

		// SEND_WITH_IMM consumes a receive and delivers the immediate.
		r.qpB.PostRecv(RecvWR{WRID: 11, SGEs: []SGE{{Addr: 0x100000, Len: 4096, LKey: mrB.LKey}}})
		if err := r.qpA.PostSend(SendWR{WRID: 1, Opcode: OpSendImm, Signaled: true, Imm: 0xfeedface,
			SGEs: []SGE{{Addr: 0x100000, Len: uint32(len(msg)), LKey: mrA.LKey}}}); err != nil {
			t.Error(err)
			return
		}
		pollN(r.a.cq, 1)
		rc := pollN(r.b.cq, 1)[0]
		if rc.WRID != 11 || rc.Status != WCSuccess || !rc.HasImm || rc.Imm != 0xfeedface {
			t.Errorf("SEND_WITH_IMM recv CQE = %+v", rc)
		}

		// WRITE_WITH_IMM places data remotely AND consumes a receive for
		// the immediate notification.
		r.qpB.PostRecv(RecvWR{WRID: 12, SGEs: []SGE{{Addr: 0x101000, Len: 4096, LKey: mrB.LKey}}})
		if err := r.qpA.PostSend(SendWR{WRID: 2, Opcode: OpWriteImm, Signaled: true, Imm: 42,
			SGEs:       []SGE{{Addr: 0x100000, Len: uint32(len(msg)), LKey: mrA.LKey}},
			RemoteAddr: 0x100800, RKey: mrB.RKey}); err != nil {
			t.Error(err)
			return
		}
		pollN(r.a.cq, 1)
		rc = pollN(r.b.cq, 1)[0]
		if rc.WRID != 12 || rc.Status != WCSuccess || !rc.HasImm || rc.Imm != 42 {
			t.Errorf("WRITE_WITH_IMM recv CQE = %+v", rc)
		}
		got := make([]byte, len(msg))
		r.b.as.Read(0x100800, got)
		if !bytes.Equal(got, msg) {
			t.Errorf("WRITE_WITH_IMM payload = %q", got)
		}
	})
	r.s.Run()
}

// TestCompChannelKeepsTheFirst1024Events: a completion channel holds
// 1,024 events. 1,025 completions on a CQ re-armed before each leave
// 1,024 events on the channel (the newest is dropped, which is safe:
// events are edge-triggered), and the CQ still polls every completion.
func TestCompChannelKeepsTheFirst1024Events(t *testing.T) {
	r := newRig(t, Config{}, func(r *rig) {
		comp := r.b.dev.CreateCompChannel()
		cq := r.b.dev.CreateCQ(2048, comp)
		for i := 0; i <= 1024; i++ {
			cq.ReqNotify()
			cq.push(CQE{WRID: uint64(i)})
		}
		events := 0
		for {
			got, ok := comp.TryGet()
			if !ok {
				break
			}
			if got != cq {
				t.Fatal("event for the wrong CQ")
			}
			events++
		}
		if events != 1024 {
			t.Errorf("%d events on the channel, want 1024", events)
		}
		polled := cq.Poll(2048)
		if len(polled) != 1025 {
			t.Fatalf("polled %d completions, want 1025", len(polled))
		}
		for i, e := range polled {
			if e.WRID != uint64(i) {
				t.Fatalf("completion %d has WRID %d", i, e.WRID)
			}
		}
	})
	r.s.Run()
}
