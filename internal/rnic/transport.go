package rnic

import (
	"migrrdma/internal/fabric"
	"migrrdma/internal/mem"
)

// This file implements the transport engine: lazily paced transmission
// (the NIC pulls the next fragment only when the wire is free, so
// retransmission timers measure true wire occupancy), the responder
// pipeline with protection checks, and ACK/NAK/RNR recovery.

// rxItem is a received packet with its source node and the wire buffer
// it was decoded from (recycled together once handled).
type rxItem struct {
	p   *packet
	src string
	buf []byte
}

// --- Requester: transmission ---------------------------------------------

// transmit queues a newly posted entry for wire transmission.
func (qp *QP) transmit(e *sqEntry) {
	e.queued = true
	qp.txq.Push(e)
	qp.dev.enqueueTx(qp)
}

// enqueueTx adds qp to the transmit round-robin ring.
func (d *Device) enqueueTx(qp *QP) {
	if qp.inTxRing || qp.closed {
		return
	}
	qp.inTxRing = true
	d.txRing.Push(qp)
	d.pump()
}

// nextFrame produces the next frame to put on the wire: control packets
// (ACKs/NAKs) first, then responder data (READ responses), then
// requester data in QP round-robin order.
func (d *Device) nextFrame() (fabric.Frame, bool) {
	if d.ctlq.Len() > 0 {
		return d.ctlq.Pop(), true
	}
	if d.respq.Len() > 0 {
		return d.respq.Pop(), true
	}
	for d.txRing.Len() > 0 {
		qp := d.txRing.Pop()
		pkt, more, ok := qp.nextTxFrame()
		if !ok {
			qp.inTxRing = false
			continue
		}
		if more {
			d.txRing.Push(qp)
		} else {
			qp.inTxRing = false
		}
		return d.frameFor(qp.remoteNodeFor(pkt), pkt), true
	}
	return fabric.Frame{}, false
}

// remoteNodeFor resolves the destination fabric node for a requester
// packet (per-WR for UD, the connected peer for RC).
func (qp *QP) remoteNodeFor(p *packet) string {
	if qp.Type == UD {
		return p.udNode
	}
	return qp.remoteNode
}

// nextTxFrame builds the next fragment of the QP's head transmit entry.
// more reports whether the QP will have further frames after this one.
func (qp *QP) nextTxFrame() (*packet, bool, bool) {
	if qp.rnrBackoff || qp.closed || qp.state != StateRTS {
		return nil, false, false
	}
	for qp.txq.Len() > 0 {
		e := qp.txq.Front()
		if e.state == sqAcked || e.state == sqCompleted {
			// Acked while waiting in the queue (e.g. by a retransmitted
			// duplicate); skip. Once completed it has left the send queue
			// and this was the last reference, so recycle it (see retire).
			e.queued = false
			qp.txq.Pop()
			if e.state == sqCompleted {
				qp.dev.putWQE(e)
			}
			continue
		}
		pkt, last := qp.buildFragment(e)
		if e.retransmit {
			qp.mRetx.Inc()
		}
		if last {
			e.queued = false
			e.fragCursor = 0
			qp.txq.Pop()
			qp.finishTransmit(e)
		} else {
			e.fragCursor++
		}
		return pkt, qp.txq.Len() > 0, true
	}
	return nil, false, false
}

// finishTransmit runs when the last fragment of e goes on the wire.
func (qp *QP) finishTransmit(e *sqEntry) {
	if qp.Type == UD {
		// Unreliable: completion at transmission.
		qp.setState(e, sqAcked)
		qp.completeInOrder()
		return
	}
	qp.setState(e, sqSent)
	qp.armRTO()
}

// buildFragment creates fragment fragCursor of entry e. The returned
// packet comes from the device pool; frameFor recycles it after
// encoding.
func (qp *QP) buildFragment(e *sqEntry) (*packet, bool) {
	wr := &e.wr
	base := qp.dev.getPkt()
	base.DstQPN = qp.remoteQPN
	base.SrcQPN = qp.QPN
	base.PSN = e.psn
	base.Opcode = wr.Opcode
	if qp.Type == UD {
		base.DstQPN = wr.RemoteQPN
		base.udNode = wr.RemoteNode
	}
	switch wr.Opcode {
	case OpRead:
		base.Type = ptReadReq
		base.RemoteAddr = wr.RemoteAddr
		base.RKey = wr.RKey
		base.DLen = wrLen(wr.SGEs)
		base.Last = true
		return base, true
	case OpCompSwap, OpFetchAdd:
		base.Type = ptAtomicReq
		base.RemoteAddr = wr.RemoteAddr
		base.RKey = wr.RKey
		base.DLen = 8
		base.CompareAdd = wr.CompareAdd
		base.Swap = wr.Swap
		base.Last = true
		return base, true
	}
	// SEND / WRITE family: fragment the gathered payload.
	total := wrLen(wr.SGEs)
	mtu := uint32(qp.dev.cfg.MTU)
	off := uint32(e.fragCursor) * mtu
	n := total - off
	if n > mtu {
		n = mtu
	}
	last := off+n >= total
	base.Type = ptData
	base.Frag = e.fragCursor
	base.Last = last
	base.DLen = total
	if wr.Opcode == OpWrite || wr.Opcode == OpWriteImm {
		// Every fragment carries the message base address; the responder
		// reassembles the full message and writes it at the base.
		base.RemoteAddr = wr.RemoteAddr
		base.RKey = wr.RKey
	}
	if last && (wr.Opcode == OpSendImm || wr.Opcode == OpWriteImm) {
		base.Imm = wr.Imm
		base.HasImm = true
	}
	switch {
	case n == 0:
	case qp.zeroSource(wr.SGEs, off, n):
		// Nothing to read: the fragment travels as its length.
		base.Payload = mem.Zeros(int(n))
	default:
		// Gather straight into the wire buffer, behind the header
		// frameFor encodes in front of it.
		base.wire = qp.dev.getBuf(packetHeaderLen + int(n))
		base.Payload = base.wire[packetHeaderLen:]
		qp.gather(wr.SGEs, off, base.Payload)
	}
	return base, last
}

// zeroSource reports, without reading a byte, whether the n bytes at
// offset off of the SGE list read as zeros: every range lies on pages
// that are untouched or borrow the zero page (mem.AddressSpace.ZeroRange)
// or in a deregistered MR, which gather reads as zeros.
func (qp *QP) zeroSource(sges []SGE, off, n uint32) bool {
	return qp.sgeRanges(sges, off, n, func(mr *MR, a mem.Addr, _, take uint32) bool {
		return mr == nil || mr.as.ZeroRange(a, uint64(take))
	})
}

// gather DMA-reads len(out) bytes starting at offset off of the SGE
// list into out.
func (qp *QP) gather(sges []SGE, off uint32, out []byte) {
	qp.sgeRanges(sges, off, uint32(len(out)), func(mr *MR, a mem.Addr, at, take uint32) bool {
		if mr != nil {
			_ = mr.as.Read(a, out[at:at+take])
		} else {
			// Deregistered mid-flight: DMA reads garbage, not stale
			// scratch contents from an unrelated message.
			clear(out[at : at+take])
		}
		return true
	})
}

// sgeRanges walks the n bytes at offset off of the SGE list, calling fn
// with each range's MR (nil once deregistered), address, and offset and
// length within the n bytes, until fn returns false; it reports whether
// every call returned true.
func (qp *QP) sgeRanges(sges []SGE, off, n uint32, fn func(mr *MR, a mem.Addr, at, take uint32) bool) bool {
	var filled, pos uint32
	for _, sge := range sges {
		if filled == n {
			break
		}
		if pos+sge.Len > off {
			start := max(off, pos) - pos
			take := min(sge.Len-start, n-filled)
			mr, _ := qp.dev.mrByLKey(sge.LKey)
			if !fn(mr, sge.Addr+mem.Addr(start), filled, take) {
				return false
			}
			filled += take
		}
		pos += sge.Len
	}
	return true
}

// scatter DMA-writes data across the SGE list, returning false on local
// protection failure (insufficient buffer space).
func (qp *QP) scatter(sges []SGE, data []byte) bool {
	if wrLen(sges) < uint32(len(data)) {
		return false
	}
	off := 0
	for _, sge := range sges {
		if off == len(data) {
			break
		}
		n := int(sge.Len)
		if n > len(data)-off {
			n = len(data) - off
		}
		if mr, ok := qp.dev.mrByLKey(sge.LKey); ok {
			_ = mr.as.Write(sge.Addr, data[off:off+n])
		}
		off += n
	}
	return true
}

// frameFor wraps a packet in a fabric frame addressed to dst, encoding
// it into a pooled wire buffer — the one its payload was gathered into,
// if any. The packet struct (which every caller obtained from the
// device pool) is recycled here: the frame owns the encoded bytes and
// nothing else references p.
func (d *Device) frameFor(dst string, p *packet) fabric.Frame {
	buf := p.wire
	if buf == nil {
		buf = d.getBuf(packetHeaderLen + len(p.body()))
	}
	p.encodeInto(buf)
	f := fabric.Frame{
		Src:  d.node,
		Dst:  dst,
		Port: PortRDMA,
		Size: p.wireSize(),
		Data: buf,
	}
	d.putPkt(p)
	return f
}

// sendCtl queues a control packet (ACK/NAK) at high priority.
func (d *Device) sendCtl(dst string, p *packet) {
	d.ctlq.Push(d.frameFor(dst, p))
	d.pump()
}

// sendResp queues responder data (READ responses) behind control but
// ahead of new requester work from this node.
func (d *Device) sendResp(dst string, p *packet) {
	d.respq.Push(d.frameFor(dst, p))
	d.pump()
}

// --- Packet dispatch -------------------------------------------------------

// handlePacket processes one received packet on the device engine.
func (d *Device) handlePacket(it rxItem) {
	p := it.p
	qp, ok := d.lookupQP(p.DstQPN)
	if !ok {
		return // stale packet for a destroyed QP: drop silently
	}
	switch p.Type {
	case ptData, ptReadReq, ptAtomicReq:
		qp.responder(p, it.src)
	case ptAck, ptNak, ptRnrNak, ptReadResp, ptAtomicResp:
		qp.requester(p)
	}
}

// --- Responder --------------------------------------------------------------

// reassembly accumulates the fragments of the in-flight inbound message.
// The message is buf followed by zeros zero bytes: zero fragments are
// counted, and buf is built only once a fragment carrying bytes arrives.
type reassembly struct {
	psn      uint32
	nextFrag uint16
	buf      []byte
	zeros    int
	bad      bool
}

// add appends one fragment's payload.
func (r *reassembly) add(payload []byte) {
	if mem.IsZeros(payload) {
		r.zeros += len(payload)
		return
	}
	r.buf = append(append(r.buf, make([]byte, r.zeros)...), payload...)
	r.zeros = 0
}

// data returns the message held: a view of the shared zero run when
// every fragment so far was zeros, else the built buffer. Either is
// valid until the next add or restart.
func (r *reassembly) data() []byte {
	if len(r.buf) == 0 && r.zeros <= mem.ZeroRunLen {
		return mem.Zeros(r.zeros)
	}
	r.add(nil) // moves the counted zeros into buf
	return r.buf
}

// responder handles an inbound request packet.
func (qp *QP) responder(p *packet, src string) {
	if qp.state != StateRTR && qp.state != StateRTS {
		return
	}
	if qp.Type == UD {
		qp.responderUD(p)
		return
	}
	// Duplicate (already-delivered) message: re-acknowledge; replay READ
	// and ATOMIC responses so a lost response doesn't wedge the peer.
	// These are redundant inbound frames (switch duplication or a
	// retransmission racing the ack), not go-back-N transmissions, so
	// they land in duplicated_packets, not retx_packets.
	if psnLess(p.PSN, qp.expPSN) {
		qp.dev.mDup.Inc()
		if p.Last {
			qp.replyDuplicate(p, src)
		}
		return
	}
	// Sequence gap: a message was lost. NAK the expected PSN once per
	// gap (go-back-N); re-NAKing every stray frame would storm.
	if p.PSN != qp.expPSN {
		if p.Last && (!qp.nakSent || qp.nakPSN != qp.expPSN) {
			qp.nakSent, qp.nakPSN = true, qp.expPSN
			qp.sendNak(src, p.SrcQPN, qp.expPSN, nakSeqErr)
		}
		return
	}
	// Single-fragment message: deliver the payload in place. execute
	// consumes it synchronously (scatter and AddressSpace.Write copy the
	// bytes out), and the RX buffer backing it is only recycled after
	// handlePacket returns, so no reassembly copy is needed.
	if p.Frag == 0 && p.Last {
		qp.execute(p, p.Payload, src)
		return
	}
	// Reassemble the expected message into a per-QP scratch buffer
	// (reused across messages — execute consumes it before the next
	// message can start). A zeroth fragment restarts the reassembly only
	// when recovering from a loss (r.bad): a redundant frag-0 copy of a
	// healthy in-progress message must not discard fragments already
	// held, or the discarded tail would look like a gap and trigger a
	// spurious go-back-N round (polluting retx_packets with what was
	// really a switch duplicate).
	r := qp.reasm
	if r == nil {
		r = &reassembly{}
		qp.reasm = r
	}
	if r.psn != p.PSN || (p.Frag == 0 && r.bad) {
		r.psn, r.nextFrag, r.bad = p.PSN, 0, false
		r.buf, r.zeros = r.buf[:0], 0
	}
	if !r.bad && p.Frag < r.nextFrag {
		// Redundant copy of a fragment already held: r holds exactly
		// fragments [0, nextFrag), so ignoring the copy still assembles
		// the message correctly.
		qp.dev.mDup.Inc()
		// Exception: the last fragment of a fully held message that was
		// never delivered (expPSN still equals the message PSN — the
		// earlier delivery attempt hit RNR with no receive posted). The
		// peer's RNR retry re-sends the whole message and every copy
		// lands here, so swallowing the final fragment would pin the
		// message in the reassembly buffer forever. Retry delivery from
		// the held buffer instead; once it succeeds, expPSN advances and
		// later copies fall into the duplicate-ack path above.
		if p.Last && p.Frag+1 == r.nextFrag {
			qp.execute(p, r.data(), src)
		}
		return
	}
	if p.Frag != r.nextFrag {
		r.bad = true // lost fragment inside the message
	}
	if !r.bad {
		r.add(p.Payload)
		r.nextFrag++
	}
	if !p.Last {
		return
	}
	if r.bad {
		qp.sendNak(src, p.SrcQPN, qp.expPSN, nakSeqErr)
		return
	}
	qp.execute(p, r.data(), src)
}

// execute runs a fully received message at the expected PSN.
func (qp *QP) execute(p *packet, data []byte, src string) {
	d := qp.dev
	switch {
	case p.Type == ptData && (p.Opcode == OpSend || p.Opcode == OpSendImm):
		wr, ok := qp.popRecv()
		if !ok {
			qp.sendRNR(src, p.SrcQPN, qp.expPSN)
			return
		}
		if !qp.scatter(wr.sges.Get(), data) {
			qp.recvCQ.push(CQE{WRID: wr.WRID, Status: WCLocalProtErr, Opcode: OpRecv, QPN: qp.QPN})
			qp.respondError(src, p)
			return
		}
		cqe := CQE{WRID: wr.WRID, Status: WCSuccess, Opcode: OpRecv, QPN: qp.QPN, ByteLen: p.DLen, SrcQP: p.SrcQPN}
		if p.HasImm {
			cqe.Imm, cqe.HasImm = p.Imm, true
		}
		qp.recvCQ.push(cqe)
		qp.NRecvDone++
		qp.advance(src, p.SrcQPN)

	case p.Type == ptData && (p.Opcode == OpWrite || p.Opcode == OpWriteImm):
		as, ok := d.lookupRemote(p.RKey, p.RemoteAddr, p.DLen, AccessRemoteWrite)
		if !ok {
			qp.respondError(src, p)
			return
		}
		if err := as.Write(p.RemoteAddr, data); err != nil {
			qp.respondError(src, p)
			return
		}
		if p.Opcode == OpWriteImm {
			wr, ok := qp.popRecv()
			if !ok {
				qp.sendRNR(src, p.SrcQPN, qp.expPSN)
				return
			}
			cqe := CQE{WRID: wr.WRID, Status: WCSuccess, Opcode: OpRecv, QPN: qp.QPN, ByteLen: p.DLen, Imm: p.Imm, HasImm: true, SrcQP: p.SrcQPN}
			qp.recvCQ.push(cqe)
			qp.NRecvDone++
		}
		qp.advance(src, p.SrcQPN)

	case p.Type == ptReadReq:
		as, ok := d.lookupRemote(p.RKey, p.RemoteAddr, p.DLen, AccessRemoteRead)
		if !ok {
			qp.respondError(src, p)
			return
		}
		buf, err := readSource(as, p.RemoteAddr, p.DLen)
		if err != nil {
			qp.respondError(src, p)
			return
		}
		qp.expPSN = psnAdd(qp.expPSN, 1)
		qp.streamReadResponse(src, p.SrcQPN, p.PSN, buf)

	case p.Type == ptAtomicReq:
		if p.RemoteAddr%8 != 0 {
			qp.respondError(src, p)
			return
		}
		as, ok := d.lookupRemote(p.RKey, p.RemoteAddr, 8, AccessRemoteAtomic)
		if !ok {
			qp.respondError(src, p)
			return
		}
		orig, err := as.ReadU64(p.RemoteAddr)
		if err != nil {
			qp.respondError(src, p)
			return
		}
		var next uint64
		if p.Opcode == OpCompSwap {
			next = orig
			if orig == p.CompareAdd {
				next = p.Swap
			}
		} else {
			next = orig + p.CompareAdd
		}
		_ = as.WriteU64(p.RemoteAddr, next)
		if qp.atomicCache == nil {
			qp.atomicCache = make(map[uint32]uint64)
		}
		qp.atomicCache[p.PSN] = orig
		qp.expPSN = psnAdd(qp.expPSN, 1)
		qp.sendAtomicResp(src, p.SrcQPN, p.PSN, orig)
	}
}

// sendAtomicResp queues an atomic response carrying the original value.
func (qp *QP) sendAtomicResp(dst string, dstQPN, psn uint32, orig uint64) {
	r := qp.dev.getPkt()
	r.Type = ptAtomicResp
	r.DstQPN = dstQPN
	r.SrcQPN = qp.QPN
	r.PSN = psn
	r.Last = true
	r.CompareAdd = orig
	qp.dev.sendCtl(dst, r)
}

// advance bumps expPSN and acknowledges it cumulatively.
func (qp *QP) advance(src string, srcQPN uint32) {
	acked := qp.expPSN
	qp.expPSN = psnAdd(qp.expPSN, 1)
	qp.dev.emitPSN("exp", qp.QPN, qp.expPSN)
	qp.nakSent = false
	qp.sendAck(src, srcQPN, acked)
}

// sendAck queues a cumulative acknowledgement for PSN acked.
func (qp *QP) sendAck(dst string, dstQPN, acked uint32) {
	a := qp.dev.getPkt()
	a.Type = ptAck
	a.DstQPN = dstQPN
	a.SrcQPN = qp.QPN
	a.AckPSN = acked
	a.Last = true
	qp.dev.sendCtl(dst, a)
}

// replyDuplicate re-acknowledges an already-delivered message and
// replays READ/ATOMIC responses.
func (qp *QP) replyDuplicate(p *packet, src string) {
	switch p.Type {
	case ptReadReq:
		as, ok := qp.dev.lookupRemote(p.RKey, p.RemoteAddr, p.DLen, AccessRemoteRead)
		if ok {
			if buf, err := readSource(as, p.RemoteAddr, p.DLen); err == nil {
				qp.streamReadResponse(src, p.SrcQPN, p.PSN, buf)
				return
			}
		}
	case ptAtomicReq:
		if orig, ok := qp.atomicCache[p.PSN]; ok {
			qp.sendAtomicResp(src, p.SrcQPN, p.PSN, orig)
			return
		}
	}
	last := psnAdd(qp.expPSN, 0xFFFFFF) // expPSN-1 mod 2^24
	qp.sendAck(src, p.SrcQPN, last)
}

// readSource returns the n bytes a READ response carries from a: a view
// of the shared zero run when the range reads as the zero page (its
// fragments then travel as lengths), else a fresh copy.
func readSource(as *mem.AddressSpace, a mem.Addr, n uint32) ([]byte, error) {
	if as.ZeroRange(a, uint64(n)) {
		return mem.Zeros(int(n)), nil
	}
	buf := make([]byte, n)
	return buf, as.Read(a, buf)
}

// streamReadResponse fragments and queues a READ response.
func (qp *QP) streamReadResponse(dst string, dstQPN, psn uint32, data []byte) {
	mtu := qp.dev.cfg.MTU
	if len(data) == 0 {
		r := qp.dev.getPkt()
		r.Type = ptReadResp
		r.DstQPN = dstQPN
		r.SrcQPN = qp.QPN
		r.PSN = psn
		r.Last = true
		r.Opcode = OpRead
		qp.dev.sendResp(dst, r)
		return
	}
	for off, frag := 0, uint16(0); off < len(data); frag++ {
		n := len(data) - off
		if n > mtu {
			n = mtu
		}
		r := qp.dev.getPkt()
		r.Type = ptReadResp
		r.DstQPN = dstQPN
		r.SrcQPN = qp.QPN
		r.PSN = psn
		r.Frag = frag
		r.Last = off+n == len(data)
		r.Opcode = OpRead
		r.DLen = uint32(len(data))
		r.Payload = data[off : off+n]
		qp.dev.sendResp(dst, r)
		off += n
	}
}

// sendNak sends a go-back-N sequence NAK for the expected PSN.
func (qp *QP) sendNak(dst string, dstQPN, expected uint32, syndrome uint8) {
	qp.mNaks.Inc()
	n := qp.dev.getPkt()
	n.Type = ptNak
	n.DstQPN = dstQPN
	n.SrcQPN = qp.QPN
	n.AckPSN = expected
	n.Syndrome = syndrome
	n.Last = true
	qp.dev.sendCtl(dst, n)
}

// sendRNR reports receiver-not-ready for the given message PSN.
func (qp *QP) sendRNR(dst string, dstQPN, psn uint32) {
	qp.mRNRs.Inc()
	r := qp.dev.getPkt()
	r.Type = ptRnrNak
	r.DstQPN = dstQPN
	r.SrcQPN = qp.QPN
	r.AckPSN = psn
	r.Last = true
	qp.dev.sendCtl(dst, r)
}

// respondError NAKs a request with a remote-access error and moves the
// responder QP to the error state.
func (qp *QP) respondError(src string, p *packet) {
	qp.sendNak(src, p.SrcQPN, p.PSN, nakRemoteAccess)
	qp.enterError()
}

// responderUD delivers an unreliable datagram.
func (qp *QP) responderUD(p *packet) {
	if p.Type != ptData || !p.Last {
		return
	}
	wr, ok := qp.popRecv()
	if !ok {
		return // UD drops silently
	}
	if !qp.scatter(wr.sges.Get(), p.Payload) {
		qp.recvCQ.push(CQE{WRID: wr.WRID, Status: WCLocalProtErr, Opcode: OpRecv, QPN: qp.QPN})
		return
	}
	cqe := CQE{WRID: wr.WRID, Status: WCSuccess, Opcode: OpRecv, QPN: qp.QPN, ByteLen: p.DLen, SrcQP: p.SrcQPN}
	if p.HasImm {
		cqe.Imm, cqe.HasImm = p.Imm, true
	}
	qp.recvCQ.push(cqe)
	qp.NRecvDone++
}

// NAK syndromes.
const (
	nakSeqErr       uint8 = 1
	nakRemoteAccess uint8 = 2
)

// --- Requester: responses ----------------------------------------------------

// requester handles ACKs, NAKs and one-sided responses.
func (qp *QP) requester(p *packet) {
	if qp.state != StateRTS && qp.state != StateError {
		return
	}
	switch p.Type {
	case ptAck:
		qp.ackUpTo(p.AckPSN)

	case ptNak:
		if p.Syndrome == nakRemoteAccess {
			for _, e := range qp.sq {
				if e.psn == p.PSN && e.state != sqCompleted {
					e.status = WCRemoteAccessErr
				}
			}
			qp.enterError()
			return
		}
		// Sequence NAK: everything before the expected PSN arrived.
		qp.ackBelow(p.AckPSN)
		qp.goBackN(p.AckPSN)
		qp.afterAck()

	case ptRnrNak:
		qp.ackBelow(p.AckPSN)
		qp.markUnsent(p.AckPSN)
		qp.rnrRetry()

	case ptReadResp:
		buf := p.Payload
		if r, held := qp.readBuf[p.PSN]; held || !p.Last {
			if !held {
				if qp.readBuf == nil {
					qp.readBuf = make(map[uint32]*reassembly)
				}
				r = &reassembly{}
				qp.readBuf[p.PSN] = r
			}
			r.add(p.Payload)
			if !p.Last {
				return
			}
			buf = r.data()
			delete(qp.readBuf, p.PSN)
		}
		for _, e := range qp.sq {
			if e.psn == p.PSN && (e.state == sqSent || e.state == sqQueued) {
				if !qp.scatter(e.wr.SGEs, buf) {
					e.status = WCLocalProtErr
				}
				qp.setState(e, sqAcked)
				qp.dev.emitPSN("ack", qp.QPN, e.psn)
				break
			}
		}
		qp.ackBelow(p.PSN)
		qp.afterAck()

	case ptAtomicResp:
		for _, e := range qp.sq {
			if e.psn == p.PSN && (e.state == sqSent || e.state == sqQueued) {
				if len(e.wr.SGEs) > 0 {
					var b [8]byte
					putU64LE(b[:], p.CompareAdd)
					if !qp.scatter(e.wr.SGEs[:1], b[:]) {
						e.status = WCLocalProtErr
					}
				}
				qp.setState(e, sqAcked)
				qp.dev.emitPSN("ack", qp.QPN, e.psn)
				break
			}
		}
		qp.ackBelow(p.PSN)
		qp.afterAck()
	}
}

// ackUpTo acknowledges every sent entry with PSN ≤ ack (cumulative).
// PostSend hands out PSNs in order, so the send queue is in PSN order and
// the walk stops at the first entry the ACK does not cover.
func (qp *QP) ackUpTo(ack uint32) {
	for _, e := range qp.sq {
		if psnLess(ack, e.psn) {
			break
		}
		if e.state == sqSent {
			if isFenced(e.wr.Opcode) {
				// READ/ATOMIC complete only via their response packets.
				continue
			}
			qp.setState(e, sqAcked)
			qp.dev.emitPSN("ack", qp.QPN, e.psn)
		}
	}
	qp.afterAck()
}

// ackBelow acknowledges sent entries with PSN strictly below psn, in
// PSN order as ackUpTo does.
func (qp *QP) ackBelow(psn uint32) {
	for _, e := range qp.sq {
		if !psnLess(e.psn, psn) {
			break
		}
		if e.state == sqSent && !isFenced(e.wr.Opcode) {
			qp.setState(e, sqAcked)
			qp.dev.emitPSN("ack", qp.QPN, e.psn)
		}
	}
}

// afterAck handles bookkeeping common to every acknowledgement.
func (qp *QP) afterAck() {
	qp.retries = 0
	qp.rnrRetries = 0
	qp.completeInOrder()
	qp.armRTO()
}

// goBackN re-queues every entry with PSN ≥ from for retransmission.
func (qp *QP) goBackN(from uint32) {
	qp.mGoBackN.Inc()
	qp.markUnsent(from)
	qp.requeueUnsent()
}

// markUnsent rewinds sent entries at or after PSN from back to queued.
func (qp *QP) markUnsent(from uint32) {
	for _, e := range qp.sq {
		if e.state == sqSent && !psnLess(e.psn, from) {
			qp.setState(e, sqQueued)
			e.retransmit = true
		}
	}
}

// requeueUnsent puts every queued-but-not-listed entry back on the
// transmit queue in PSN order.
func (qp *QP) requeueUnsent() {
	for _, e := range qp.sq {
		if e.state == sqQueued && !e.queued {
			e.queued = true
			e.fragCursor = 0
			qp.txq.Push(e)
		}
	}
	qp.dev.enqueueTx(qp)
}

// retransmitUnackedImpl re-queues all sent-unacked entries (RTO / RNR).
func (qp *QP) retransmitUnackedQueued() {
	qp.mGoBackN.Inc()
	for _, e := range qp.sq {
		if e.state == sqSent {
			qp.setState(e, sqQueued)
			e.retransmit = true
		}
	}
	qp.requeueUnsent()
}

// isFenced reports ops whose completion requires a response packet.
func isFenced(op Opcode) bool {
	return op == OpRead || op == OpCompSwap || op == OpFetchAdd
}

func putU64LE(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
