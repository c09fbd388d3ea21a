package core

import (
	"migrrdma/internal/cluster"
	"migrrdma/internal/mem"
	"migrrdma/internal/rnic"
	"migrrdma/internal/task"
)

// TranslationProbe exposes the guest library's data-path interposition
// for direct CPU-cost measurement (Table 4). The paper samples the CPU
// cycles each verb invocation spends with and without virtualization;
// the probe isolates exactly the instructions MigrRDMA adds — the
// dense-array lkey translation, the rkey cache hit, and the QPN
// translation on the completion path — so a Go benchmark can measure
// their real cost.
type TranslationProbe struct {
	sess     *Session
	ringAddr mem.Addr
	wqeSeq   int

	qp      *QP
	sendWR  rnic.SendWR
	writeWR rnic.SendWR
	readWR  rnic.SendWR
	recvWR  rnic.RecvWR
	cqe     rnic.CQE
	cq      *CQ
}

// NewTranslationProbe builds a two-host rig with one connected RC QP
// and a registered MR, then captures the session internals needed to
// run the translation paths outside the simulation (they are pure once
// the rkey cache is warm).
func NewTranslationProbe() *TranslationProbe {
	cl := cluster.New(cluster.Config{Seed: 5}, "a", "b")
	defer cl.Close() // the captured state is used off the simulation
	da, db := NewDaemon(cl.Host("a")), NewDaemon(cl.Host("b"))
	pr := &TranslationProbe{}
	cl.Sched.Go("probe-setup", func() {
		// Peer side: a session owning the remote MR.
		pb := newProc(cl, "probe-peer")
		sb := NewSession(pb, db)
		pdB := sb.AllocPD()
		cqB := sb.CreateCQ(64, nil)
		qpB := sb.CreateQP(pdB, QPConfig{Type: rnic.RC, SendCQ: cqB, RecvCQ: cqB})
		pb.AS.Map(0x100000, 1<<20, "buf")
		mrB, err := sb.RegMR(pdB, 0x100000, 1<<20, rnic.AccessLocalWrite|rnic.AccessRemoteWrite|rnic.AccessRemoteRead)
		if err != nil {
			panic(err)
		}

		pa := newProc(cl, "probe")
		sa := NewSession(pa, da)
		pd := sa.AllocPD()
		cq := sa.CreateCQ(64, nil)
		qp := sa.CreateQP(pd, QPConfig{Type: rnic.RC, SendCQ: cq, RecvCQ: cq})
		pa.AS.Map(0x100000, 1<<20, "buf")
		mr, err := sa.RegMR(pd, 0x100000, 1<<20, rnic.AccessLocalWrite)
		if err != nil {
			panic(err)
		}
		if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateInit}); err != nil {
			panic(err)
		}
		if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: "b", RemoteQPN: qpB.VQPN()}); err != nil {
			panic(err)
		}
		if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateRTS}); err != nil {
			panic(err)
		}
		// Warm the rkey cache with one resolve.
		if _, err := sa.resolveRKey(qp, mrB.RKey()); err != nil {
			panic(err)
		}
		pr.sess, pr.qp, pr.cq = sa, qp, cq
		pr.sendWR = rnic.SendWR{WRID: 1, Opcode: rnic.OpSend, Signaled: true,
			SGEs: []rnic.SGE{{Addr: 0x100000, Len: 64, LKey: mr.LKey()}}}
		pr.writeWR = rnic.SendWR{WRID: 1, Opcode: rnic.OpWrite, Signaled: true,
			SGEs:       []rnic.SGE{{Addr: 0x100000, Len: 64, LKey: mr.LKey()}},
			RemoteAddr: 0x100000, RKey: mrB.RKey()}
		pr.readWR = rnic.SendWR{WRID: 1, Opcode: rnic.OpRead, Signaled: true,
			SGEs:       []rnic.SGE{{Addr: 0x100000, Len: 64, LKey: mr.LKey()}},
			RemoteAddr: 0x100000, RKey: mrB.RKey()}
		pr.recvWR = rnic.RecvWR{WRID: 2, SGEs: []rnic.SGE{{Addr: 0x100000, Len: 64, LKey: mr.LKey()}}}
		pr.cqe = rnic.CQE{WRID: 1, Opcode: rnic.OpRecv, QPN: qp.v.QPN(), ByteLen: 64}
		ring, err := pa.AS.MapAnywhere(0x7e00_0000_0000, 4096, "probe-ring")
		if err != nil {
			panic(err)
		}
		pr.ringAddr = ring.Start
	})
	cl.Sched.Run()
	return pr
}

// newProc makes a bare process on the cluster's scheduler.
func newProc(cl *cluster.Cluster, name string) *task.Process {
	return task.New(cl.Sched, name)
}

// TranslateSend runs the virtual→physical work-request translation
// (lkey array lookup plus, for one-sided ops, the rkey cache hit).
func (p *TranslationProbe) TranslateSend() {
	wr := p.sendWR
	if err := p.sess.translateSend(p.qp, &wr); err != nil {
		panic(err)
	}
}

// TranslateWrite translates a one-sided WRITE (adds the rkey path).
func (p *TranslationProbe) TranslateWrite() {
	wr := p.writeWR
	if err := p.sess.translateSend(p.qp, &wr); err != nil {
		panic(err)
	}
}

// TranslateRead translates a READ.
func (p *TranslationProbe) TranslateRead() {
	wr := p.readWR
	if err := p.sess.translateSend(p.qp, &wr); err != nil {
		panic(err)
	}
}

// TranslateRecv translates a receive work request.
func (p *TranslationProbe) TranslateRecv() {
	wr := p.recvWR
	if err := p.sess.translateRecv(&wr); err != nil {
		panic(err)
	}
}

// TranslateCQE runs the physical→virtual QPN translation on the
// completion path the way CQ.PollInto does: the device has written the
// CQE into the caller's buffer, and the QPN is patched there.
func (p *TranslationProbe) TranslateCQE() {
	sinkCQE = p.cqe
	p.sess.translateCQE(p.cq, &sinkCQE)
}

// CopySendBaseline performs only the WQE-copy work translateSend shares
// with a plain (non-virtualized) library post path, with no table
// lookups. Subtracting it from the translate measurements isolates the
// instructions MigrRDMA adds.
func (p *TranslationProbe) CopySendBaseline() {
	wr := p.writeWR
	sinkWR = wr
}

// CopyRecvBaseline is the receive-path equivalent.
func (p *TranslationProbe) CopyRecvBaseline() {
	wr := p.recvWR
	sinkRecv = wr
}

// CopyCQEBaseline copies a CQE without translation.
func (p *TranslationProbe) CopyCQEBaseline() {
	sinkCQE = p.cqe
}

// WQEWriteBaseline performs the library's WQE ring write — work every
// post path (virtualized or not) performs. Together with the copy
// baselines it forms the Go-native "without virtualization" cost that
// Table 4 normalizes against.
func (p *TranslationProbe) WQEWriteBaseline() {
	var slot [64]byte
	slot[0] = byte(p.wqeSeq)
	_ = p.sess.Proc.AS.Write(p.ringAddr, slot[:])
	p.wqeSeq++
}

// sinks defeat dead-code elimination in benchmarks.
var (
	sinkWR   rnic.SendWR
	sinkRecv rnic.RecvWR
	sinkCQE  rnic.CQE
)
