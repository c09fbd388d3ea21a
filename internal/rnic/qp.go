package rnic

import (
	"fmt"
	"time"

	"migrrdma/internal/fifo"
	"migrrdma/internal/metrics"
	"migrrdma/internal/sim"
)

// sqState tracks a send WQE through the transport.
type sqState uint8

const (
	sqQueued    sqState = iota // posted, not yet on the wire
	sqSent                     // all fragments handed to the wire
	sqAcked                    // acknowledged / response received
	sqCompleted                // CQE generated (or silently retired)
)

// sqEntry is a send-queue element with its transport state. Entries are
// pooled on the device: PostSend takes one, retirement returns it (see
// QP.retire).
type sqEntry struct {
	wr         SendWR  // wr.SGEs aliases sges
	sges       SGEList // the WQE's gather list
	psn        uint32
	state      sqState
	status     WCStatus
	queued     bool   // currently on the QP transmit queue
	fragCursor uint16 // next fragment to put on the wire
	// retransmit marks an entry rewound from sqSent by go-back-N or an
	// RTO; its subsequent fragments count as retransmitted packets.
	retransmit bool
}

// QPCaps sets queue depths.
type QPCaps struct {
	MaxSend int
	MaxRecv int
}

// QP is a queue pair. All transport state (PSNs, retransmission, the
// in-flight window) is private: software observes it only through
// completions, which is the constraint MigrRDMA designs around.
type QP struct {
	QPN   uint32
	Type  QPType
	state QPState
	dev   *Device
	pd    *PD
	caps  QPCaps

	sendCQ, recvCQ *CQ
	srq            *SRQ

	// Remote endpoint (RC, set at RTR).
	remoteNode string
	remoteQPN  uint32

	// Requester side. nSent counts the entries of sq in state sqSent
	// (setState keeps it), so armRTO need not walk the queue.
	sq         []*sqEntry
	nSent      int
	txq        fifo.Queue[*sqEntry] // entries with fragments still to transmit
	inTxRing   bool
	nextPSN    uint32
	rnrBackoff bool
	retries    int
	rnrRetries int
	rtoTimer   sim.LaneTimer // on the device's rtoLane
	rtoDue     time.Duration // when rtoTimer was last armed for; onRTO checks it

	// Responder side.
	expPSN  uint32
	rq      fifo.Queue[RecvWQE]
	reasm   *reassembly
	nakSent bool // a NAK for nakPSN is outstanding
	nakPSN  uint32
	// atomicCache maps PSN → original value (replay protection); readBuf
	// holds inbound READ responses under reassembly. Both are made by the
	// first ATOMIC or READ the QP sees: most QPs see neither.
	atomicCache map[uint32]uint64
	readBuf     map[uint32]*reassembly

	// Counters visible to the library layer. NSent counts two-sided
	// verbs posted; NRecvDone counts completed receive WQEs. They are
	// the n_sent / n_recv of the paper's wait-before-stop (§3.4).
	NSent     uint64
	NRecvDone uint64

	// Registry handles (per-QP posts, completion and fault telemetry),
	// resolved once at creation.
	mPosts, mRecvPosts, mCQEs metrics.Counter

	// Fault-path counters: responder NAKs and RNR NAKs sent, requester
	// go-back-N rewinds (NAK- or RTO-triggered). Fault-injection tests
	// read them to prove their corpora reach these branches.
	mNaks, mRNRs metrics.Counter
	mGoBackN     metrics.Counter
	mRetx        metrics.Counter

	// closed marks a destroyed QP.
	closed bool
}

// SRQ is a shared receive queue.
type SRQ struct {
	Handle uint32
	dev    *Device
	rq     fifo.Queue[RecvWQE]
}

// CreateSRQ creates a shared receive queue.
func (d *Device) CreateSRQ() *SRQ {
	d.sched.Sleep(createCQLat)
	s := &SRQ{Handle: d.allocID(), dev: d}
	d.srqs[s.Handle] = s
	return s
}

// PostRecv posts a receive WQE to the SRQ.
func (s *SRQ) PostRecv(wr RecvWR) { s.rq.Push(NewRecvWQE(wr)) }

// Len reports outstanding receive WQEs.
func (s *SRQ) Len() int { return s.rq.Len() }

// DestroySRQ releases the SRQ.
func (d *Device) DestroySRQ(s *SRQ) {
	d.sched.Sleep(destroyLat)
	delete(d.srqs, s.Handle)
}

// CreateQP creates a queue pair in the RESET state.
func (d *Device) CreateQP(pd *PD, typ QPType, sendCQ, recvCQ *CQ, srq *SRQ, caps QPCaps) *QP {
	d.sched.Sleep(createQPLat)
	if caps.MaxSend == 0 {
		caps.MaxSend = 128
	}
	if caps.MaxRecv == 0 {
		caps.MaxRecv = 128
	}
	qp := &QP{
		QPN:    d.allocQPN(),
		Type:   typ,
		dev:    d,
		pd:     pd,
		caps:   caps,
		sendCQ: sendCQ,
		recvCQ: recvCQ,
		srq:    srq,
	}
	b := d.reg.Block("rnic", d.qpLabels(qp.QPN), 7)
	qp.mPosts = b.Counter("send_posts")
	qp.mRecvPosts = b.Counter("recv_posts")
	qp.mCQEs = b.Counter("cqes")
	qp.mNaks = b.Counter("naks")
	qp.mRNRs = b.Counter("rnr_naks")
	qp.mGoBackN = b.Counter("go_back_n")
	qp.mRetx = b.Counter("retx_packets")
	d.qps[qp.QPN] = qp
	return qp
}

// DestroyQP tears a queue pair down.
func (d *Device) DestroyQP(qp *QP) {
	d.sched.Sleep(destroyLat)
	qp.closed = true
	qp.rtoTimer.Cancel()
	delete(d.qps, qp.QPN)
	if slot := &d.qpCache[cacheSlot(qp.QPN)]; *slot == qp {
		*slot = nil
	}
}

// State returns the QP state.
func (qp *QP) State() QPState { return qp.state }

// RemoteQPN returns the connected peer's QP number (RC only).
func (qp *QP) RemoteQPN() uint32 { return qp.remoteQPN }

// RemoteNode returns the connected peer's fabric node (RC only).
func (qp *QP) RemoteNode() string { return qp.remoteNode }

// ModifyAttr carries ibv_modify_qp parameters.
type ModifyAttr struct {
	State      QPState
	RemoteNode string // RTR: peer fabric node
	RemoteQPN  uint32 // RTR: peer QPN
}

// Modify transitions the QP state machine, blocking the caller for the
// firmware command latency. Transitions follow the verbs spec:
// RESET→INIT→RTR→RTS, any→ERR, any→RESET.
func (qp *QP) Modify(attr ModifyAttr) error {
	d := qp.dev
	switch attr.State {
	case StateInit:
		if qp.state != StateReset {
			return fmt.Errorf("rnic: %v→INIT invalid", qp.state)
		}
		d.sched.Sleep(modifyInitLat)
		qp.state = StateInit
	case StateRTR:
		if qp.state != StateInit {
			return fmt.Errorf("rnic: %v→RTR invalid", qp.state)
		}
		d.sched.Sleep(modifyRTRLat)
		if qp.Type == RC {
			if attr.RemoteNode == "" {
				return fmt.Errorf("rnic: RC RTR requires a remote endpoint")
			}
			qp.remoteNode = attr.RemoteNode
			qp.remoteQPN = attr.RemoteQPN
		}
		qp.state = StateRTR
	case StateRTS:
		if qp.state != StateRTR {
			return fmt.Errorf("rnic: %v→RTS invalid", qp.state)
		}
		d.sched.Sleep(modifyRTSLat)
		qp.state = StateRTS
	case StateError:
		d.sched.Sleep(modifyInitLat)
		qp.enterError()
	case StateReset:
		// Resetting a live QP is slow (paper §3.2 rejects QP reuse via
		// reset partly for this reason).
		d.sched.Sleep(resetQPLat)
		qp.reset()
	default:
		return fmt.Errorf("rnic: unsupported target state %v", attr.State)
	}
	return nil
}

// reset returns the QP to its initial state, discarding queues.
func (qp *QP) reset() {
	qp.state = StateReset
	qp.sq, qp.nSent = nil, 0
	qp.rq = fifo.Queue[RecvWQE]{}
	qp.nextPSN = 0
	qp.expPSN = 0
	qp.remoteNode = ""
	qp.remoteQPN = 0
	qp.reasm = nil
	qp.rtoTimer.Cancel()
}

// enterError moves to ERR and flushes outstanding WQEs with flush status.
func (qp *QP) enterError() {
	if qp.state == StateError {
		return
	}
	qp.state = StateError
	for _, e := range qp.sq { // none is sqCompleted (see SendQueueDepth)
		if e.status == WCSuccess {
			e.status = WCWRFlushErr
		}
		qp.setState(e, sqAcked)
	}
	qp.completeInOrder()
	for i := 0; i < qp.rq.Len(); i++ {
		qp.recvCQ.push(CQE{WRID: qp.rq.At(i).WRID, Status: WCWRFlushErr, Opcode: OpRecv, QPN: qp.QPN})
	}
	qp.rq = fifo.Queue[RecvWQE]{}
}

// SendQueueDepth reports in-flight send WQEs (posted, not yet retired) —
// the head/tail window the paper's wait-before-stop inspects (§3.4). It
// is the whole send queue: completeInOrder takes every entry it
// completes off the queue in the same call.
func (qp *QP) SendQueueDepth() int { return len(qp.sq) }

// RecvQueueDepth reports receive WQEs not yet consumed.
func (qp *QP) RecvQueueDepth() int {
	if qp.srq != nil {
		return qp.srq.rq.Len()
	}
	return qp.rq.Len()
}

// PostSend posts a send-queue work request (ibv_post_send).
func (qp *QP) PostSend(wr SendWR) error {
	if qp.closed {
		return fmt.Errorf("rnic: post on destroyed QP")
	}
	if qp.state != StateRTS {
		return fmt.Errorf("rnic: PostSend in state %v", qp.state)
	}
	if len(qp.sq) >= qp.caps.MaxSend {
		return fmt.Errorf("rnic: send queue full (depth %d)", qp.caps.MaxSend)
	}
	if qp.Type == UD {
		if wr.Opcode != OpSend && wr.Opcode != OpSendImm {
			return fmt.Errorf("rnic: UD supports only SEND")
		}
		if int(wrLen(wr.SGEs)) > qp.dev.cfg.MTU {
			return fmt.Errorf("rnic: UD message exceeds MTU")
		}
		if wr.RemoteNode == "" {
			return fmt.Errorf("rnic: UD send needs a remote address handle")
		}
	}
	// Validate local SGEs against the protection tables now; real NICs
	// do it at WQE processing time, but the failure mode is equivalent.
	for _, sge := range wr.SGEs {
		needWrite := wr.Opcode == OpRead || wr.Opcode == OpCompSwap || wr.Opcode == OpFetchAdd
		if _, err := qp.dev.lookupLocal(qp.pd, sge, needWrite); err != nil {
			return fmt.Errorf("rnic: local protection: %w", err)
		}
	}
	// The WQE owns its gather list from here on (the library may reuse
	// its scatter/gather buffer immediately after posting, as real
	// verbs permit once ibv_post_send returns).
	e := qp.dev.getWQE()
	e.wr, e.psn = wr, qp.nextPSN
	e.sges.Set(wr.SGEs)
	e.wr.SGEs = e.sges.Get()
	qp.nextPSN = psnAdd(qp.nextPSN, 1)
	if qp.sq == nil {
		// The first post sizes the send ring to the (bounded) queue cap,
		// so steady-state posting never grows it and a QP that never
		// sends has none.
		qp.sq = make([]*sqEntry, 0, ringCap(qp.caps.MaxSend))
	}
	qp.sq = append(qp.sq, e)
	qp.mPosts.Inc()
	if wr.Opcode == OpSend || wr.Opcode == OpSendImm || wr.Opcode == OpWriteImm {
		qp.NSent++
	}
	qp.transmit(e)
	return nil
}

// PostRecv posts a receive work request (ibv_post_recv).
func (qp *QP) PostRecv(wr RecvWR) error {
	if qp.closed {
		return fmt.Errorf("rnic: post on destroyed QP")
	}
	if qp.srq != nil {
		return fmt.Errorf("rnic: QP uses an SRQ; post to the SRQ")
	}
	if qp.state == StateReset {
		return fmt.Errorf("rnic: PostRecv in RESET")
	}
	if qp.rq.Len() >= qp.caps.MaxRecv {
		return fmt.Errorf("rnic: receive queue full")
	}
	for _, sge := range wr.SGEs {
		if _, err := qp.dev.lookupLocal(qp.pd, sge, true); err != nil {
			return fmt.Errorf("rnic: local protection: %w", err)
		}
	}
	qp.rq.Reserve(qp.caps.MaxRecv)
	qp.rq.Push(NewRecvWQE(wr))
	qp.mRecvPosts.Inc()
	return nil
}

// popRecv takes the next receive WQE from the RQ or SRQ. The WQE is
// returned by value, so its scatter list stays valid however the queue
// is reused afterwards.
func (qp *QP) popRecv() (RecvWQE, bool) {
	rq := &qp.rq
	if qp.srq != nil {
		rq = &qp.srq.rq
	}
	if rq.Len() == 0 {
		return RecvWQE{}, false
	}
	return rq.Pop(), true
}

// completeInOrder walks the send queue from the front, retiring acked
// entries in posting order (completions are ordered on RC).
func (qp *QP) completeInOrder() {
	done := 0
	for done < len(qp.sq) {
		e := qp.sq[done]
		if e.state != sqAcked {
			break
		}
		qp.setState(e, sqCompleted)
		if e.wr.Signaled || e.status != WCSuccess {
			qp.sendCQ.push(CQE{
				WRID:    e.wr.WRID,
				Status:  e.status,
				Opcode:  e.wr.Opcode,
				QPN:     qp.QPN,
				ByteLen: wrLen(e.wr.SGEs),
			})
		}
		done++
	}
	if done > 0 {
		for _, e := range qp.sq[:done] {
			qp.retire(e)
		}
		// Shift the remainder down instead of re-slicing: the ring keeps
		// its capacity, so steady-state post/complete never reallocates.
		n := copy(qp.sq, qp.sq[done:])
		for i := n; i < len(qp.sq); i++ {
			qp.sq[i] = nil
		}
		qp.sq = qp.sq[:n]
	}
}

// retire returns a completed entry, already off the send queue, to the
// device pool. An entry still listed on the transmit queue (completed by
// a late response, or flushed, while waiting there) is recycled by
// nextTxFrame when it pops it, so no queue ever holds a recycled entry.
func (qp *QP) retire(e *sqEntry) {
	if !e.queued {
		qp.dev.putWQE(e)
	}
}

// ringCap bounds a pre-sized WQE ring allocation.
func ringCap(n int) int {
	if n > 256 {
		return 256
	}
	return n
}

// setState moves a send-queue entry to state s, keeping nSent.
func (qp *QP) setState(e *sqEntry, s sqState) {
	if e.state == sqSent {
		qp.nSent--
	}
	if s == sqSent {
		qp.nSent++
	}
	e.state = s
}

// armRTO (re)arms the retransmission timer if unacked work remains: the
// QP moves to the tail of its device's RTO lane, which every QP arms
// with the same delay, so the lane stays in deadline order and all of a
// device's retransmission timers take one heap entry.
func (qp *QP) armRTO() {
	if qp.Type == RC && qp.state == StateRTS && qp.nSent > 0 {
		qp.rtoDue = qp.dev.sched.Now() + rto
		qp.dev.rtoLane.Arm(&qp.rtoTimer, rto, qp)
		return
	}
	qp.rtoTimer.Cancel()
}

// fireRTO and fireRNRResume are the retransmission timer callbacks,
// shared by every QP with the QP as argument (fireRTO is the RTO lane's
// callback), so creating a QP binds no method value and re-arming a
// timer allocates nothing.
func fireRTO(qp any)       { qp.(*QP).onRTO() }
func fireRNRResume(qp any) { qp.(*QP).rnrResume() }

// onRTO fires when the oldest unacked message timed out: go-back-N.
func (qp *QP) onRTO() {
	if now := qp.dev.sched.Now(); now != qp.rtoDue {
		// The entry is re-armed on every ACK: a fire at the deadline of
		// an earlier arm would be a spurious go-back-N.
		panic(fmt.Sprintf("rnic: QP %d retransmission timer fired at %v, last armed for %v", qp.QPN, now, qp.rtoDue))
	}
	if qp.closed || qp.dev.closed || qp.state != StateRTS {
		return
	}
	qp.retries++
	if qp.retries > qp.dev.cfg.MaxRetries {
		for _, e := range qp.sq {
			if e.status == WCSuccess {
				e.status = WCRetryExceeded
			}
		}
		qp.enterError()
		return
	}
	qp.retransmitUnackedQueued()
	qp.armRTO()
}

// rnrRetry is the back-off restart after an RNR NAK.
func (qp *QP) rnrRetry() {
	if qp.rnrBackoff {
		return
	}
	qp.rnrRetries++
	if max := qp.dev.cfg.RNRRetries; max > 0 && qp.rnrRetries > max {
		for _, e := range qp.sq {
			if e.status == WCSuccess {
				e.status = WCRNRRetryExceeded
			}
		}
		qp.enterError()
		return
	}
	qp.rnrBackoff = true
	qp.dev.sched.AfterFuncArg(rnrDelay, fireRNRResume, qp)
}

// rnrResume ends the RNR back-off window and restarts transmission.
func (qp *QP) rnrResume() {
	qp.rnrBackoff = false
	if qp.closed || qp.dev.closed || qp.state != StateRTS {
		return
	}
	qp.requeueUnsent()
	qp.armRTO()
}
