// Package verbs is the ibverbs-shaped userspace API over internal/rnic:
// contexts, protection domains, memory regions, completion queues, queue
// pairs, shared receive queues, memory windows, on-chip device memory
// and completion channels.
//
// It corresponds to the OFED driver + libibverbs pair the paper modifies
// (§4): every control-path call is reported to an optional Recorder (the
// seam where MigrRDMA's indirection layer bookkeeps the "roadmap" of
// RDMA communication establishment). Restore (Table 3) is not here:
// core.(*Daemon).RestoreContextFor opens a context on the destination
// device and replays the recorded roadmap through the ordinary create
// calls of this package.
//
// The values this layer returns to applications — QPNs, lkeys, rkeys —
// are the NIC's physical ones. Virtualizing them is deliberately NOT
// done here; that is the MigrRDMA guest library's job (internal/core),
// mirroring the paper's split between the plain RDMA library and the
// MigrRDMA Lib.
package verbs

import (
	"migrrdma/internal/mem"
	"migrrdma/internal/rnic"
	"migrrdma/internal/sim"
)

// Recorder observes control-path calls. The MigrRDMA indirection layer
// implements it to maintain the minimal state needed to rebuild RDMA
// communications (§3.2 "Checkpointing the RDMA communication").
type Recorder interface {
	Record(ev Event)
}

// EventKind enumerates control-path operations.
type EventKind int

// Control-path event kinds.
const (
	EvAllocPD EventKind = iota
	EvDeallocPD
	EvRegMR
	EvDeregMR
	EvCreateCQ
	EvDestroyCQ
	EvCreateQP
	EvDestroyQP
	EvModifyQP
	EvCreateSRQ
	EvDestroySRQ
	EvCreateCompChannel
	EvBindMW
	EvDeallocMW
	EvAllocDM
	EvFreeDM
)

// Event is one recorded control-path call, carrying the driver-local
// object ID, its dependencies, and the creation parameters needed for
// replay.
type Event struct {
	Kind EventKind
	ID   ObjID

	// Dependencies (zero when not applicable).
	PD, SendCQ, RecvCQ, SRQ, MR, Channel ObjID

	// Creation parameters.
	QPType rnic.QPType
	Caps   rnic.QPCaps
	Addr   mem.Addr
	Len    uint64
	Access rnic.Access
	CQCap  int

	// ModifyQP parameters.
	Attr rnic.ModifyAttr
}

// ObjID is a driver-local object identifier, stable for the lifetime of
// the owning process (unlike physical QPNs/keys, which change when the
// resource is recreated on another NIC).
type ObjID uint64

// Context is a process's opened device (ibv_open_device +
// ibv_alloc_context). It knows the process address space for MR
// registration and DMA.
type Context struct {
	dev *rnic.Device
	as  *mem.AddressSpace
	rec Recorder

	nextID   ObjID
	cqList   []*CQ
	ringHint mem.Addr
}

// OpenDevice opens dev for a process whose memory is as.
func OpenDevice(dev *rnic.Device, as *mem.AddressSpace) *Context {
	return &Context{dev: dev, as: as, nextID: 1, ringHint: ringArena()}
}

// SetRecorder installs the control-path recorder (the indirection
// layer). Pass nil to detach.
func (c *Context) SetRecorder(r Recorder) { c.rec = r }

// SetNextObjID raises the object ID allocator. A restored context must
// allocate IDs beyond those in the process's existing roadmap so fresh
// resources never collide with replayed ones.
func (c *Context) SetNextObjID(id ObjID) {
	if id > c.nextID {
		c.nextID = id
	}
}

// Device returns the underlying device.
func (c *Context) Device() *rnic.Device { return c.dev }

// Node returns the fabric node the device is attached to.
func (c *Context) Node() string { return c.dev.Node() }

// Mem returns the address space MRs are registered against.
func (c *Context) Mem() *mem.AddressSpace { return c.as }

// Scheduler returns the simulation scheduler.
func (c *Context) Scheduler() *sim.Scheduler { return c.dev.Scheduler() }

func (c *Context) record(ev Event) {
	if c.rec != nil {
		c.rec.Record(ev)
	}
}

func (c *Context) id() ObjID {
	id := c.nextID
	c.nextID++
	return id
}

// PD is a protection domain handle.
type PD struct {
	ID  ObjID
	ctx *Context
	pd  *rnic.PD
}

// AllocPD allocates a protection domain (ibv_alloc_pd).
func (c *Context) AllocPD() *PD {
	pd := &PD{ID: c.id(), ctx: c, pd: c.dev.AllocPD()}
	c.record(Event{Kind: EvAllocPD, ID: pd.ID})
	return pd
}

// Dealloc releases the protection domain (ibv_dealloc_pd).
func (pd *PD) Dealloc() {
	pd.ctx.dev.DeallocPD(pd.pd)
	pd.ctx.record(Event{Kind: EvDeallocPD, ID: pd.ID})
}

// MR is a registered memory region handle.
type MR struct {
	ID  ObjID
	ctx *Context
	mr  *rnic.MR
}

// RegMR registers memory (ibv_reg_mr). The virtual address is the
// process's own, which is why restoring MRs requires the original
// addresses to be mapped first (§3.2).
func (c *Context) RegMR(pd *PD, addr mem.Addr, length uint64, access rnic.Access) (*MR, error) {
	m, err := c.dev.RegMR(pd.pd, c.as, addr, length, access)
	if err != nil {
		return nil, err
	}
	mr := &MR{ID: c.id(), ctx: c, mr: m}
	c.record(Event{Kind: EvRegMR, ID: mr.ID, PD: pd.ID, Addr: addr, Len: length, Access: access})
	return mr, nil
}

// LKey returns the physical local key.
func (mr *MR) LKey() uint32 { return mr.mr.LKey }

// RKey returns the physical remote key.
func (mr *MR) RKey() uint32 { return mr.mr.RKey }

// Addr returns the registered base virtual address.
func (mr *MR) Addr() mem.Addr { return mr.mr.Addr }

// Len returns the registered length.
func (mr *MR) Len() uint64 { return mr.mr.Len }

// Access returns the registered access flags.
func (mr *MR) Access() rnic.Access { return mr.mr.Access }

// Dereg deregisters the region (ibv_dereg_mr).
func (mr *MR) Dereg() {
	mr.ctx.dev.DeregMR(mr.mr)
	mr.ctx.record(Event{Kind: EvDeregMR, ID: mr.ID})
}

// CompChannel is a completion event channel handle.
type CompChannel struct {
	ID  ObjID
	ctx *Context
	ch  *rnic.CompChannel
}

// CreateCompChannel creates a completion channel (ibv_create_comp_channel).
func (c *Context) CreateCompChannel() *CompChannel {
	ch := &CompChannel{ID: c.id(), ctx: c, ch: c.dev.CreateCompChannel()}
	c.record(Event{Kind: EvCreateCompChannel, ID: ch.ID})
	return ch
}

// TryGet returns a pending event without blocking.
func (ch *CompChannel) TryGet() (*CQ, bool) {
	rcq, ok := ch.ch.TryGet()
	if !ok {
		return nil, false
	}
	return ch.ctx.cqFor(rcq), true
}

// SetWake makes the device channel broadcast c on every event
// (rnic.CompChannel.SetWake).
func (ch *CompChannel) SetWake(c *sim.Cond) { ch.ch.SetWake(c) }

// cqs tracks the context's CQ wrappers so channel events can be mapped
// back to handles.
func (c *Context) cqFor(rcq *rnic.CQ) *CQ {
	for _, cq := range c.cqList {
		if cq.cq == rcq {
			return cq
		}
	}
	return nil
}

// CQ is a completion queue handle.
type CQ struct {
	ID   ObjID
	ctx  *Context
	cq   *rnic.CQ
	ch   *CompChannel
	ring mem.Addr
}

// CreateCQ creates a completion queue (ibv_create_cq), optionally bound
// to a completion channel.
func (c *Context) CreateCQ(capacity int, ch *CompChannel) *CQ {
	var rch *rnic.CompChannel
	var chID ObjID
	if ch != nil {
		rch = ch.ch
		chID = ch.ID
	}
	cq := &CQ{ID: c.id(), ctx: c, cq: c.dev.CreateCQ(capacity, rch), ch: ch}
	if ring, err := c.mapRing("cq-ring", capacity); err == nil {
		cq.cq.SetShadowRing(c.as, ring)
		cq.ring = ring
	}
	c.cqList = append(c.cqList, cq)
	c.record(Event{Kind: EvCreateCQ, ID: cq.ID, CQCap: capacity, Channel: chID})
	return cq
}

// PollInto polls up to len(dst) completions into the caller's buffer
// (ibv_poll_cq). Non-blocking.
func (cq *CQ) PollInto(dst []rnic.CQE) int { return cq.cq.PollInto(dst) }

// Poll polls up to max completions into the CQ's own buffer; the slice
// is valid until the next Poll on this CQ.
func (cq *CQ) Poll(max int) []rnic.CQE { return cq.cq.Poll(max) }

// Len reports pending completions.
func (cq *CQ) Len() int { return cq.cq.Len() }

// WaitNonEmpty parks the caller until completions are available
// (simulation stand-in for a busy-poll loop).
func (cq *CQ) WaitNonEmpty() { cq.cq.WaitNonEmpty() }

// SetWake makes the device CQ broadcast c on every completion
// (rnic.CQ.SetWake).
func (cq *CQ) SetWake(c *sim.Cond) { cq.cq.SetWake(c) }

// ReqNotify arms the CQ for one event (ibv_req_notify_cq).
func (cq *CQ) ReqNotify() { cq.cq.ReqNotify() }

// Destroy releases the CQ and its library ring (ibv_destroy_cq).
func (cq *CQ) Destroy() {
	cq.cq.SetShadowRing(nil, 0)
	cq.ctx.dev.DestroyCQ(cq.cq)
	if cq.ring != 0 {
		_ = cq.ctx.as.Unmap(cq.ring)
		cq.ring = 0
	}
	cq.ctx.record(Event{Kind: EvDestroyCQ, ID: cq.ID})
	for i, e := range cq.ctx.cqList {
		if e == cq {
			cq.ctx.cqList = append(cq.ctx.cqList[:i], cq.ctx.cqList[i+1:]...)
			break
		}
	}
}

// SRQ is a shared receive queue handle.
type SRQ struct {
	ID  ObjID
	ctx *Context
	srq *rnic.SRQ
}

// CreateSRQ creates a shared receive queue (ibv_create_srq).
func (c *Context) CreateSRQ() *SRQ {
	s := &SRQ{ID: c.id(), ctx: c, srq: c.dev.CreateSRQ()}
	c.record(Event{Kind: EvCreateSRQ, ID: s.ID})
	return s
}

// PostRecv posts to the shared receive queue (ibv_post_srq_recv).
func (s *SRQ) PostRecv(wr rnic.RecvWR) { s.srq.PostRecv(wr) }

// Len reports outstanding receive WQEs.
func (s *SRQ) Len() int { return s.srq.Len() }

// Destroy releases the SRQ.
func (s *SRQ) Destroy() {
	s.ctx.dev.DestroySRQ(s.srq)
	s.ctx.record(Event{Kind: EvDestroySRQ, ID: s.ID})
}

// QP is a queue pair handle.
type QP struct {
	ID  ObjID
	ctx *Context
	qp  *rnic.QP

	pd             *PD
	sendCQ, recvCQ *CQ
	srq            *SRQ

	// Library-managed work-queue rings (see rings.go).
	sqRing, rqRing   mem.Addr
	sqDepth, rqDepth int
	sqSeq, rqSeq     int
}

// CreateQP creates a queue pair (ibv_create_qp).
func (c *Context) CreateQP(pd *PD, typ rnic.QPType, sendCQ, recvCQ *CQ, srq *SRQ, caps rnic.QPCaps) *QP {
	var rsrq *rnic.SRQ
	var srqID ObjID
	if srq != nil {
		rsrq = srq.srq
		srqID = srq.ID
	}
	qp := &QP{
		ID:  c.id(),
		ctx: c,
		qp:  c.dev.CreateQP(pd.pd, typ, sendCQ.cq, recvCQ.cq, rsrq, caps),
		pd:  pd, sendCQ: sendCQ, recvCQ: recvCQ, srq: srq,
	}
	qp.sqDepth, qp.rqDepth = caps.MaxSend, caps.MaxRecv
	if qp.sqDepth == 0 {
		qp.sqDepth = 128
	}
	if qp.rqDepth == 0 {
		qp.rqDepth = 128
	}
	qp.sqRing, _ = c.mapRing("qp-sq-ring", qp.sqDepth)
	qp.rqRing, _ = c.mapRing("qp-rq-ring", qp.rqDepth)
	c.record(Event{
		Kind: EvCreateQP, ID: qp.ID, PD: pd.ID,
		SendCQ: sendCQ.ID, RecvCQ: recvCQ.ID, SRQ: srqID,
		QPType: typ, Caps: caps,
	})
	return qp
}

// QPN returns the physical queue pair number.
func (qp *QP) QPN() uint32 { return qp.qp.QPN }

// Type returns the QP service type.
func (qp *QP) Type() rnic.QPType { return qp.qp.Type }

// State returns the QP state.
func (qp *QP) State() rnic.QPState { return qp.qp.State() }

// SendCQ returns the send completion queue handle.
func (qp *QP) SendCQ() *CQ { return qp.sendCQ }

// RecvCQ returns the receive completion queue handle.
func (qp *QP) RecvCQ() *CQ { return qp.recvCQ }

// Modify transitions the QP (ibv_modify_qp).
func (qp *QP) Modify(attr rnic.ModifyAttr) error {
	if err := qp.qp.Modify(attr); err != nil {
		return err
	}
	qp.ctx.record(Event{Kind: EvModifyQP, ID: qp.ID, Attr: attr})
	return nil
}

// PostSend posts a send work request (ibv_post_send), writing the WQE
// into the library-managed SQ ring.
func (qp *QP) PostSend(wr rnic.SendWR) error {
	if err := qp.qp.PostSend(wr); err != nil {
		return err
	}
	if qp.sqRing != 0 {
		qp.ctx.writeWQE(qp.sqRing, qp.sqSeq, qp.sqDepth, wr.WRID)
		qp.sqSeq++
	}
	return nil
}

// PostRecv posts a receive work request (ibv_post_recv), writing the
// WQE into the library-managed RQ ring.
func (qp *QP) PostRecv(wr rnic.RecvWR) error {
	if err := qp.qp.PostRecv(wr); err != nil {
		return err
	}
	if qp.rqRing != 0 {
		qp.ctx.writeWQE(qp.rqRing, qp.rqSeq, qp.rqDepth, wr.WRID)
		qp.rqSeq++
	}
	return nil
}

// SendQueueDepth reports in-flight (posted, unretired) send WQEs.
func (qp *QP) SendQueueDepth() int { return qp.qp.SendQueueDepth() }

// RecvQueueDepth reports unconsumed receive WQEs.
func (qp *QP) RecvQueueDepth() int { return qp.qp.RecvQueueDepth() }

// Counters returns (n_sent, n_recv): two-sided verbs posted and receive
// WQEs completed since creation — the §3.4 wait-before-stop counters.
func (qp *QP) Counters() (nSent, nRecv uint64) { return qp.qp.NSent, qp.qp.NRecvDone }

// RemoteQPN returns the connected peer QPN (RC).
func (qp *QP) RemoteQPN() uint32 { return qp.qp.RemoteQPN() }

// RemoteNode returns the connected peer node (RC).
func (qp *QP) RemoteNode() string { return qp.qp.RemoteNode() }

// Destroy releases the QP and its library rings (ibv_destroy_qp).
func (qp *QP) Destroy() {
	qp.ctx.dev.DestroyQP(qp.qp)
	if qp.sqRing != 0 {
		_ = qp.ctx.as.Unmap(qp.sqRing)
		qp.sqRing = 0
	}
	if qp.rqRing != 0 {
		_ = qp.ctx.as.Unmap(qp.rqRing)
		qp.rqRing = 0
	}
	qp.ctx.record(Event{Kind: EvDestroyQP, ID: qp.ID})
}

// MW is a memory window handle.
type MW struct {
	ID  ObjID
	ctx *Context
	mw  *rnic.MW
	mr  *MR
}

// BindMW binds a memory window over a subrange of mr (ibv_bind_mw).
func (c *Context) BindMW(mr *MR, addr mem.Addr, length uint64, access rnic.Access) (*MW, error) {
	w, err := c.dev.BindMW(mr.mr, addr, length, access)
	if err != nil {
		return nil, err
	}
	mw := &MW{ID: c.id(), ctx: c, mw: w, mr: mr}
	c.record(Event{Kind: EvBindMW, ID: mw.ID, MR: mr.ID, Addr: addr, Len: length, Access: access})
	return mw, nil
}

// RKey returns the window's physical remote key.
func (mw *MW) RKey() uint32 { return mw.mw.RKey }

// Dealloc releases the window (ibv_dealloc_mw).
func (mw *MW) Dealloc() {
	mw.ctx.dev.DeallocMW(mw.mw)
	mw.ctx.record(Event{Kind: EvDeallocMW, ID: mw.ID})
}

// DM is an on-chip device memory handle mapped into the process at Addr.
type DM struct {
	ID   ObjID
	ctx  *Context
	dm   *rnic.DM
	Addr mem.Addr
	Len  uint64
}

// AllocDM allocates on-chip memory (ibv_alloc_dm) and maps it into the
// process address space at an allocator-chosen virtual address.
func (c *Context) AllocDM(length uint64) (*DM, error) {
	d, err := c.dev.AllocDM(length)
	if err != nil {
		return nil, err
	}
	vma, err := c.as.MapAnywhereDevice(dmArenaHint, length, "dm")
	if err != nil {
		c.dev.FreeDM(d)
		return nil, err
	}
	dm := &DM{ID: c.id(), ctx: c, dm: d, Addr: vma.Start, Len: length}
	c.record(Event{Kind: EvAllocDM, ID: dm.ID, Addr: dm.Addr, Len: length})
	return dm, nil
}

// Remap moves the device mapping to a chosen virtual address (used by
// restore to reproduce the original mapping; §3.3 does this with
// mremap()).
func (dm *DM) Remap(to mem.Addr) error {
	if err := dm.ctx.as.Remap(dm.Addr, to); err != nil {
		return err
	}
	dm.Addr = to
	return nil
}

// Free releases the on-chip memory and its mapping (ibv_free_dm).
func (dm *DM) Free() {
	dm.ctx.dev.FreeDM(dm.dm)
	_ = dm.ctx.as.Unmap(dm.Addr)
	dm.ctx.record(Event{Kind: EvFreeDM, ID: dm.ID})
}
