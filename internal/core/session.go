package core

import (
	"fmt"

	"migrrdma/internal/fifo"
	"migrrdma/internal/mem"
	"migrrdma/internal/metrics"
	"migrrdma/internal/rnic"
	"migrrdma/internal/sim"
	"migrrdma/internal/task"
	"migrrdma/internal/verbs"
)

// Session is the MigrRDMA Guest Lib instance loaded into one process
// (§3.1): the application-facing RDMA API. Everything the application
// sees — QP numbers, lkeys, rkeys — is a virtual value; the session
// translates to physical values on the data path using the tables the
// indirection layer shares, intercepts work requests while communication
// is suspended, and keeps fake CQs so completions survive migration.
//
// Application code holds Session/QP/CQ/MR wrappers across a migration;
// the CRIU plugin swaps the underlying verbs objects, which is exactly
// the transparency the paper's virtualization layer provides.
type Session struct {
	Proc   *task.Process
	daemon *Daemon
	ctx    *verbs.Context
	ind    *Indirection

	pds     map[verbs.ObjID]*PD
	mrs     map[verbs.ObjID]*MR
	cqs     []*CQ
	qps     map[verbs.ObjID]*QP
	srqs    map[verbs.ObjID]*SRQ
	mws     map[verbs.ObjID]*MW
	dms     map[verbs.ObjID]*DM
	chanMap map[verbs.ObjID]*CompChannel
	byVQPN  map[uint32]*QP

	lkeys keyTable // virtual lkey → physical
	rkeys keyTable // virtual rkey → physical (local MRs/MWs)

	// Remote-value caches (§3.3 "fetch from the remote side and cache it
	// locally"). rkeyCache is keyed by the peer's physical QPN (which
	// identifies the owning process) and the virtual rkey; qpnCache maps
	// (node, virtual QPN) for datagram sends and also carries the node
	// the QP currently lives on (it changes when the peer migrates).
	rkeyCache map[rkeyKey]uint32
	qpnCache  map[qpnKey]qpnVal

	// unhandledEvents counts CQ events delivered to the application but
	// not yet processed (§3.4 "Consistency of CQ events").
	unhandledEvents int

	// recvScratch is the receive-side translation buffer.
	recvScratch []rnic.SGE

	// wbsDepth counts wait-before-stop executions in progress: WBS
	// threads are then the sole consumers of the real CQs and
	// application polling is directed to the fake CQs (§3.4). It nests
	// because a node partnering two concurrent migrations runs one WBS
	// per suspend-for request on the same session, and the first to
	// finish must not re-open the real CQs under the other.
	wbsDepth int

	// activePollers counts procs currently blocked in CQ.WaitNonEmpty.
	// The chaos checker asserts it returns to zero after traffic stops:
	// no poller is left parked on a dead pre-migration CQ.
	activePollers int

	// staleWRIDs maps old physical QPNs (pre-switch incarnations) to the
	// WRIDs of leftover sends replayed after a timed-out wait-before-stop.
	// A late completion from the old QP matching one of these must be
	// dropped — the replay produces its own completion (§3.4 timeout
	// path).
	staleWRIDs map[uint32]map[uint64]bool

	// Metric handles, labeled by process name; the registry is the
	// cluster-wide one, so the series survive migration unchanged.
	mWBSRounds    metrics.Counter
	mSweepCQEs    metrics.Counter
	mIntercepts   metrics.Counter
	mReplayedWRs  metrics.Counter
	mStaleDropped metrics.Counter
	mFakeDepth    metrics.Gauge

	// stats for the virtualization-overhead evaluation.
	RKeyFetches int64

	// DisableRKeyCache forces a remote fetch on every one-sided post —
	// the ablation showing why §3.3 caches remote keys.
	DisableRKeyCache bool
}

type rkeyKey struct {
	node  string
	rqpn  uint32
	vrkey uint32
}

type qpnKey struct {
	node string
	vqpn uint32
}

type qpnVal struct {
	node string
	phys uint32
}

// NewSession loads the MigrRDMA library into process p on the daemon's
// host: it opens the device and installs the indirection layer as the
// control-path recorder.
func NewSession(p *task.Process, d *Daemon) *Session {
	s := &Session{
		Proc:       p,
		daemon:     d,
		ctx:        verbs.OpenDevice(d.dev, p.AS),
		ind:        NewIndirection(),
		pds:        make(map[verbs.ObjID]*PD),
		mrs:        make(map[verbs.ObjID]*MR),
		qps:        make(map[verbs.ObjID]*QP),
		srqs:       make(map[verbs.ObjID]*SRQ),
		mws:        make(map[verbs.ObjID]*MW),
		dms:        make(map[verbs.ObjID]*DM),
		chanMap:    make(map[verbs.ObjID]*CompChannel),
		byVQPN:     make(map[uint32]*QP),
		rkeyCache:  make(map[rkeyKey]uint32),
		qpnCache:   make(map[qpnKey]qpnVal),
		staleWRIDs: make(map[uint32]map[uint64]bool),
	}
	b := d.registry().Block("core", metrics.L("proc", p.Name), 6)
	s.mWBSRounds = b.Counter("wbs_sweep_rounds")
	s.mSweepCQEs = b.Counter("wbs_sweep_cqes")
	s.mIntercepts = b.Counter("suspended_post_intercepts")
	s.mReplayedWRs = b.Counter("restore_replayed_wrs")
	s.mStaleDropped = b.Counter("stale_cqes_dropped")
	s.mFakeDepth = b.Gauge("fake_cq_depth")
	s.ctx.SetRecorder(s.ind)
	p.Attachment = s
	d.register(s)
	return s
}

// Daemon returns the host daemon the session is currently registered
// with (it changes when the process migrates).
func (s *Session) Daemon() *Daemon { return s.daemon }

// Node returns the fabric node the session currently runs on.
func (s *Session) Node() string { return s.daemon.Node() }

// --- Control path ------------------------------------------------------------

// PD is the guest-lib protection domain handle.
type PD struct {
	sess *Session
	id   verbs.ObjID
	v    *verbs.PD
}

// AllocPD allocates a protection domain.
func (s *Session) AllocPD() *PD {
	s.Proc.Gate()
	v := s.ctx.AllocPD()
	pd := &PD{sess: s, id: v.ID, v: v}
	s.pds[v.ID] = pd
	return pd
}

// MR is the guest-lib memory region handle. LKey and RKey return the
// virtual keys; the physical values stay inside the session.
type MR struct {
	sess         *Session
	id           verbs.ObjID
	v            *verbs.MR
	vlkey, vrkey uint32
}

// RegMR registers memory and assigns dense virtual keys (§3.3).
func (s *Session) RegMR(pd *PD, addr mem.Addr, length uint64, access rnic.Access) (*MR, error) {
	s.Proc.Gate()
	v, err := s.ctx.RegMR(pd.v, addr, length, access)
	if err != nil {
		return nil, err
	}
	mr := &MR{sess: s, id: v.ID, v: v}
	mr.vlkey = s.lkeys.assign(v.LKey())
	mr.vrkey = s.rkeys.assign(v.RKey())
	s.mrs[v.ID] = mr
	return mr, nil
}

// LKey returns the virtual local key the application posts with.
func (mr *MR) LKey() uint32 { return mr.vlkey }

// RKey returns the virtual remote key the application shares with
// communication partners.
func (mr *MR) RKey() uint32 { return mr.vrkey }

// Addr returns the registered base address.
func (mr *MR) Addr() mem.Addr { return mr.v.Addr() }

// Len returns the registered length.
func (mr *MR) Len() uint64 { return mr.v.Len() }

// Dereg deregisters the region.
func (mr *MR) Dereg() {
	mr.sess.Proc.Gate()
	mr.v.Dereg()
	delete(mr.sess.mrs, mr.id)
}

// MW is the guest-lib memory window handle with a virtual rkey.
type MW struct {
	sess  *Session
	id    verbs.ObjID
	v     *verbs.MW
	vrkey uint32
}

// BindMW binds a memory window; its rkey is virtualized like MR rkeys.
func (s *Session) BindMW(mr *MR, addr mem.Addr, length uint64, access rnic.Access) (*MW, error) {
	s.Proc.Gate()
	v, err := s.ctx.BindMW(mr.v, addr, length, access)
	if err != nil {
		return nil, err
	}
	mw := &MW{sess: s, id: v.ID, v: v, vrkey: s.rkeys.assign(v.RKey())}
	s.mws[v.ID] = mw
	return mw, nil
}

// RKey returns the window's virtual remote key.
func (mw *MW) RKey() uint32 { return mw.vrkey }

// DM is the guest-lib on-chip memory handle.
type DM struct {
	sess *Session
	id   verbs.ObjID
	v    *verbs.DM
}

// AllocDM allocates on-chip device memory mapped into the process.
func (s *Session) AllocDM(length uint64) (*DM, error) {
	s.Proc.Gate()
	v, err := s.ctx.AllocDM(length)
	if err != nil {
		return nil, err
	}
	dm := &DM{sess: s, id: v.ID, v: v}
	s.dms[v.ID] = dm
	return dm, nil
}

// Addr returns the virtual address the on-chip memory is mapped at; it
// is preserved across migration via mremap (§3.3).
func (dm *DM) Addr() mem.Addr { return dm.v.Addr }

// CompChannel is the guest-lib completion channel handle.
type CompChannel struct {
	sess *Session
	id   verbs.ObjID
	v    *verbs.CompChannel
	wake sim.Cond // what Get parks on (see CQ.wake)
}

// CreateCompChannel creates a completion event channel.
func (s *Session) CreateCompChannel() *CompChannel {
	s.Proc.Gate()
	v := s.ctx.CreateCompChannel()
	ch := &CompChannel{sess: s, id: v.ID, v: v}
	ch.wake.Init(s.Sched(), "cq-event")
	v.SetWake(&ch.wake)
	s.chanMap[v.ID] = ch
	return ch
}

// Get blocks for the next CQ event and returns the guest-lib CQ. The
// session counts the event as unhandled until the CQ is polled (§3.4).
// During wait-before-stop, fake-CQ content substitutes for the stolen
// event.
func (ch *CompChannel) Get() *CQ {
	for {
		ch.sess.Proc.Gate()
		if vcq, ok := ch.v.TryGet(); ok {
			for _, cq := range ch.sess.cqs {
				if cq.v == vcq {
					return cq.event()
				}
			}
			continue
		}
		// An armed event may have been absorbed into a fake CQ by the
		// wait-before-stop thread; deliver it from there.
		for _, cq := range ch.sess.cqs {
			if cq.ch == ch && len(cq.fake) > 0 {
				return cq.event()
			}
		}
		ch.wake.Wait()
	}
}

// event counts an event Get hands out as unhandled until the CQ is next
// polled, at most once per CQ: a second event (or a repeated Get) before
// the next Poll must not drift the §3.4 consistency counter — Poll only
// ever decrements it once per CQ.
func (cq *CQ) event() *CQ {
	if !cq.eventPending {
		cq.sess.unhandledEvents++
		cq.eventPending = true
	}
	return cq
}

// CreateCQ creates a completion queue.
func (s *Session) CreateCQ(capacity int, ch *CompChannel) *CQ {
	s.Proc.Gate()
	var vch *verbs.CompChannel
	if ch != nil {
		vch = ch.v
	}
	v := s.ctx.CreateCQ(capacity, vch)
	cq := &CQ{sess: s, id: v.ID, v: v, cap: capacity, ch: ch, tempQPN: make(map[uint32]uint32)}
	cq.wake.Init(s.Sched(), "cq-wait")
	v.SetWake(&cq.wake)
	s.cqs = append(s.cqs, cq)
	return cq
}

// SRQ is the guest-lib shared receive queue handle.
type SRQ struct {
	sess *Session
	id   verbs.ObjID
	v    *verbs.SRQ
	// pending holds receive WRs posted but not yet completed (virtual
	// keys), replayed after restore (§3.4).
	pending fifo.Queue[rnic.RecvWQE]
}

// CreateSRQ creates a shared receive queue.
func (s *Session) CreateSRQ() *SRQ {
	s.Proc.Gate()
	v := s.ctx.CreateSRQ()
	srq := &SRQ{sess: s, id: v.ID, v: v}
	s.srqs[v.ID] = srq
	return srq
}

// PostRecv posts a receive WR to the shared queue.
func (srq *SRQ) PostRecv(wr rnic.RecvWR) error {
	srq.sess.Proc.Gate()
	return srq.postRecv(wr)
}

// postRecv is the gate-free SRQ post path (see QP.postSend).
func (srq *SRQ) postRecv(wr rnic.RecvWR) error {
	s := srq.sess
	pwr := wr
	if err := s.translateRecv(&pwr); err != nil {
		return err
	}
	srq.v.PostRecv(pwr)
	srq.pending.Push(rnic.NewRecvWQE(wr))
	return nil
}

// QPConfig mirrors the creation parameters of a queue pair.
type QPConfig struct {
	Type           rnic.QPType
	SendCQ, RecvCQ *CQ
	SRQ            *SRQ
	Caps           rnic.QPCaps
}

// CreateQP creates a queue pair. The returned QPN is virtual; MigrRDMA
// sets it equal to the physical QPN at creation time (§3.3) and keeps it
// stable across migrations while the physical value changes.
func (s *Session) CreateQP(pd *PD, cfg QPConfig) *QP {
	s.Proc.Gate()
	v := s.ctx.CreateQP(pd.v, cfg.Type, cfg.SendCQ.v, cfg.RecvCQ.v, srqV(cfg.SRQ), cfg.Caps)
	qp := &QP{
		sess: s, id: v.ID, v: v,
		vqpn: v.QPN(), // virtual initially equals physical
		pd:   pd, sendCQ: cfg.SendCQ, recvCQ: cfg.RecvCQ, srq: cfg.SRQ,
		typ: cfg.Type, caps: cfg.Caps,
		peerMigr: true,
	}
	s.qps[v.ID] = qp
	s.byVQPN[qp.vqpn] = qp
	s.daemon.mapQPN(v.QPN(), qp.vqpn, s)
	return qp
}

// QP is the guest-lib queue pair handle.
type QP struct {
	sess *Session
	id   verbs.ObjID
	v    *verbs.QP
	vqpn uint32

	pd             *PD
	sendCQ, recvCQ *CQ
	srq            *SRQ
	typ            rnic.QPType
	caps           rnic.QPCaps

	// suspended gates the data path during migration (§3.4): posts are
	// intercepted and buffered instead of reaching the NIC.
	suspended   bool
	intercepted fifo.Queue[sendShadow]

	// unfinished tracks send WRs handed to the NIC whose completion has
	// not been observed — the SQ head/tail window of §3.4. pendingRecvs
	// is the RQ equivalent, replayed after restore.
	unfinished   fifo.Queue[sendShadow]
	pendingRecvs fifo.Queue[rnic.RecvWQE]

	// peerNSent is the partner's n_sent counter received during
	// wait-before-stop; peerNSentKnown marks its arrival.
	peerNSent      uint64
	peerNSentKnown bool

	// peerMigr reports whether the peer runs MigrRDMA (§6 hybrid case);
	// when false, rkey values pass through untranslated.
	peerMigr bool

	// scratchSGE is the translation buffer for the post path.
	scratchSGE []rnic.SGE

	// lastVRKey/lastPhysRKey form a one-entry inline rkey cache on the
	// post path: consecutive one-sided posts typically target the same
	// MR, so translation is two compares instead of a map probe.
	lastVRKey    uint32
	lastPhysRKey uint32

	// oldV is the partner-side previous QP kept until its completions
	// drain after a switch-over.
	oldV *verbs.QP
	// suspendedOn records which physical QP held the in-flight work when
	// the suspension began. Resume compares it with v: if they differ
	// (switch-over or restore re-pointed the wrapper) the shadowed
	// unfinished sends and pending receives must be replayed onto the
	// fresh ring; if they are the same device (abort rollback resumes in
	// place) the device still owns every one of them and a replay would
	// double-post.
	suspendedOn *verbs.QP
}

// sendShadow is the library's own copy of a posted send work request,
// virtual keys and all (rnic.RecvWQE is the receive-side counterpart).
// The scatter/gather list is copied at post time like the rest of the
// WR: the application may reuse its SGE array as soon as the post
// returns, and a replay after migration must still see what was posted.
type sendShadow struct {
	wr   rnic.SendWR // SGEs live in sges
	sges rnic.SGEList
}

func shadowSend(wr *rnic.SendWR) sendShadow {
	e := sendShadow{wr: *wr}
	e.wr.SGEs = nil
	e.sges.Set(wr.SGEs)
	return e
}

// request rebuilds the posted WR. Its SGEs alias e, so e must stay in
// place until the WR has been re-posted.
func (e *sendShadow) request() rnic.SendWR {
	wr := e.wr
	wr.SGEs = e.sges.Get()
	return wr
}

// VQPN returns the virtual queue pair number.
func (qp *QP) VQPN() uint32 { return qp.vqpn }

// Type returns the QP service type.
func (qp *QP) Type() rnic.QPType { return qp.typ }

// State returns the QP state.
func (qp *QP) State() rnic.QPState { return qp.v.State() }

// Suspended reports whether the data path is currently intercepted.
func (qp *QP) Suspended() bool { return qp.suspended }

// Modify transitions the QP state machine. For RC RTR the remote QPN
// the application supplies is the peer's *virtual* QPN (what the peer's
// application exchanged out-of-band); the library translates it to the
// physical value the RNIC needs — the connection-setup translation of
// Table 1. When the peer does not run MigrRDMA (§6 negotiation) the
// value passes through untranslated.
func (qp *QP) Modify(attr rnic.ModifyAttr) error {
	s := qp.sess
	s.Proc.Gate()
	if attr.State == rnic.StateRTR && qp.typ == rnic.RC && attr.RemoteNode != "" {
		qp.peerMigr = s.daemon.PeerSupports(attr.RemoteNode)
		if qp.peerMigr {
			node, phys, err := s.resolveQPN(attr.RemoteNode, attr.RemoteQPN)
			if err != nil {
				return err
			}
			attr.RemoteNode, attr.RemoteQPN = node, phys
		}
	}
	return qp.v.Modify(attr)
}

// PostSend posts a send work request with virtual keys. While the QP is
// suspended the WR is intercepted and buffered, and the call returns as
// if the WR had been posted (§3.4 keeps RDMA's asynchronous semantics).
func (qp *QP) PostSend(wr rnic.SendWR) error {
	qp.sess.Proc.Gate()
	return qp.postSend(&wr)
}

// postSend is the gate-free post path, also used by the library itself
// when replaying WRs during restoration (the process is still frozen
// then; the library is not). It reads wr and keeps no reference to it.
func (qp *QP) postSend(wr *rnic.SendWR) error {
	s := qp.sess
	if qp.suspended {
		qp.intercepted.Push(shadowSend(wr))
		s.mIntercepts.Inc()
		return nil
	}
	pwr := *wr
	if err := s.translateSend(qp, &pwr); err != nil {
		return err
	}
	if err := qp.v.PostSend(pwr); err != nil {
		return err
	}
	qp.unfinished.Push(shadowSend(wr))
	return nil
}

// PostRecv posts a receive work request with virtual keys.
func (qp *QP) PostRecv(wr rnic.RecvWR) error {
	qp.sess.Proc.Gate()
	return qp.postRecv(wr)
}

// postRecv is the gate-free receive post path (see postSend).
func (qp *QP) postRecv(wr rnic.RecvWR) error {
	s := qp.sess
	if qp.srq != nil {
		return fmt.Errorf("core: QP uses an SRQ; post to the SRQ")
	}
	pwr := wr
	if err := s.translateRecv(&pwr); err != nil {
		return err
	}
	if err := qp.v.PostRecv(pwr); err != nil {
		return err
	}
	qp.pendingRecvs.Reserve(qp.caps.MaxRecv)
	qp.pendingRecvs.Push(rnic.NewRecvWQE(wr))
	return nil
}

// Outstanding reports send WRs posted to the NIC whose completions have
// not been observed.
func (qp *QP) Outstanding() int { return qp.unfinished.Len() }

// --- Data-path translation ----------------------------------------------------

// translateSend maps a work request from virtual to physical values, in
// place (the caller owns its copy): SGE lkeys through the dense array,
// the rkey through the remote cache, and (for UD) the remote QPN through
// the QPN cache. The translated gather list lives in a per-QP scratch
// buffer — the device copies it at post time — so the whole translation
// allocates nothing (the §3.3 dense-array design exists to keep exactly
// this path cheap).
func (s *Session) translateSend(qp *QP, wr *rnic.SendWR) error {
	if n := len(wr.SGEs); n > 0 {
		if cap(qp.scratchSGE) < n {
			qp.scratchSGE = make([]rnic.SGE, n)
		}
		dst := qp.scratchSGE[:n]
		for i := range wr.SGEs {
			phys, ok := s.lkeys.lookup(wr.SGEs[i].LKey)
			if !ok {
				return fmt.Errorf("core: unknown virtual lkey %#x", wr.SGEs[i].LKey)
			}
			dst[i] = wr.SGEs[i]
			dst[i].LKey = phys
		}
		wr.SGEs = dst
	}
	if wr.Opcode.IsOneSided() || wr.Opcode == rnic.OpWriteImm {
		rkey, err := s.resolveRKey(qp, wr.RKey)
		if err != nil {
			return err
		}
		wr.RKey = rkey
	}
	if qp.typ == rnic.UD {
		node, rqpn, err := s.resolveQPN(wr.RemoteNode, wr.RemoteQPN)
		if err != nil {
			return err
		}
		wr.RemoteNode = node
		wr.RemoteQPN = rqpn
	}
	return nil
}

// translateRecv maps receive SGE lkeys to physical values (into the
// session-level receive scratch; the device copies at post time).
func (s *Session) translateRecv(wr *rnic.RecvWR) error {
	if n := len(wr.SGEs); n > 0 {
		if cap(s.recvScratch) < n {
			s.recvScratch = make([]rnic.SGE, n)
		}
		dst := s.recvScratch[:n]
		for i := range wr.SGEs {
			phys, ok := s.lkeys.lookup(wr.SGEs[i].LKey)
			if !ok {
				return fmt.Errorf("core: unknown virtual lkey %#x", wr.SGEs[i].LKey)
			}
			dst[i] = wr.SGEs[i]
			dst[i].LKey = phys
		}
		wr.SGEs = dst
	}
	return nil
}

// resolveRKey translates a virtual rkey of the peer process to its
// physical value, fetching it out-of-band on first use (§3.3).
func (s *Session) resolveRKey(qp *QP, vrkey uint32) (uint32, error) {
	if !qp.peerMigr {
		return vrkey, nil // §6 hybrid: peer keys are physical already
	}
	if !s.DisableRKeyCache && vrkey == qp.lastVRKey && qp.lastPhysRKey != 0 {
		return qp.lastPhysRKey, nil
	}
	node, rqpn := qp.v.RemoteNode(), qp.v.RemoteQPN()
	k := rkeyKey{node: node, rqpn: rqpn, vrkey: vrkey}
	if !s.DisableRKeyCache {
		if phys, ok := s.rkeyCache[k]; ok {
			qp.lastVRKey, qp.lastPhysRKey = vrkey, phys
			return phys, nil
		}
	}
	phys, err := s.daemon.fetchRKey(node, rqpn, vrkey)
	if err != nil {
		return 0, err
	}
	s.RKeyFetches++
	s.rkeyCache[k] = phys
	qp.lastVRKey, qp.lastPhysRKey = vrkey, phys
	return phys, nil
}

// resolveQPN translates a (node, virtual QPN) datagram destination to
// the node and physical QPN it currently lives at.
func (s *Session) resolveQPN(node string, vqpn uint32) (string, uint32, error) {
	k := qpnKey{node: node, vqpn: vqpn}
	if v, ok := s.qpnCache[k]; ok {
		return v.node, v.phys, nil
	}
	curNode, phys, err := s.daemon.fetchQPN(node, vqpn)
	if err != nil {
		return "", 0, err
	}
	s.qpnCache[k] = qpnVal{node: curNode, phys: phys}
	return curNode, phys, nil
}

// InvalidateRemoteCaches drops cached rkey/QPN translations that point
// at the given node (the migration source invalidates its partners'
// caches, §3.3).
func (s *Session) InvalidateRemoteCaches(node string) {
	for _, qp := range s.qps {
		if qp.v.RemoteNode() == node {
			qp.lastVRKey, qp.lastPhysRKey = 0, 0
		}
	}
	for k := range s.rkeyCache {
		if k.node == node {
			delete(s.rkeyCache, k)
		}
	}
	for k := range s.qpnCache {
		if k.node == node {
			delete(s.qpnCache, k)
		}
	}
}

// --- Completion path -----------------------------------------------------------

// CQ is the guest-lib completion queue handle.
type CQ struct {
	sess *Session
	id   verbs.ObjID
	v    *verbs.CQ
	cap  int
	ch   *CompChannel

	// fake is the fake CQ of §3.4: completions the wait-before-stop
	// thread consumed on the application's behalf, still untranslated.
	fake []rnic.CQE
	// tempQPN translates old physical QPNs (from before a migration)
	// found in fake or drained completions.
	tempQPN map[uint32]uint32

	pollBuf rnic.PollBuf

	eventPending bool

	// wake is what WaitNonEmpty parks on; whatever changes Len broadcasts
	// it: the device CQ v, sweepCQs, the end of wait-before-stop, attach.
	wake sim.Cond
}

// PollInto fills dst with up to len(dst) completions carrying virtual
// QPNs, draining the fake CQ before the real one (§3.4), and reports how
// many it wrote.
func (cq *CQ) PollInto(dst []rnic.CQE) int {
	s := cq.sess
	s.Proc.Gate()
	if cq.eventPending {
		cq.eventPending = false
		s.unhandledEvents--
	}
	n := copy(dst, cq.fake)
	for i := range dst[:n] {
		s.translateFakeCQE(cq, &dst[i])
	}
	if n > 0 {
		// Shift the remainder down so the fake CQ keeps its capacity.
		cq.fake = cq.fake[:copy(cq.fake, cq.fake[n:])]
	}
	if len(cq.fake) == 0 && len(cq.tempQPN) > 0 {
		// Every pre-migration completion has been consumed; drop the
		// temporary table so a future QP that happens to reuse one of the
		// old numbers is not mistranslated.
		clear(cq.tempQPN)
	}
	// During wait-before-stop the application polls the fake CQ only;
	// the WBS thread owns the real CQ (§3.4).
	if n < len(dst) && !s.wbsActive() {
		// Polled and translated in place — a CQE is never copied out to
		// be patched and copied back, which would stall every load of the
		// entry behind the four-byte QPN store. Survivors are compacted
		// toward dst[n].
		for i, end := n, n+cq.v.PollInto(dst[n:]); i < end; i++ {
			if s.staleCQE(dst[i]) {
				continue
			}
			s.absorb(cq, dst[i])
			if n != i {
				dst[n] = dst[i]
			}
			s.translateCQE(cq, &dst[n])
			n++
		}
	}
	return n
}

// Poll returns up to max completions in the CQ's rnic.PollBuf.
func (cq *CQ) Poll(max int) []rnic.CQE {
	buf := cq.pollBuf.Sized(max, cq.cap)
	return buf[:cq.PollInto(buf)]
}

// staleCQE reports whether e is a late completion from a pre-switch QP
// incarnation whose WR was already replayed after a timed-out
// wait-before-stop; delivering it would double-count the WR, since the
// replay produces its own completion on the new QP.
func (s *Session) staleCQE(e rnic.CQE) bool {
	if e.Opcode == rnic.OpRecv {
		return false
	}
	set, ok := s.staleWRIDs[e.QPN]
	if !ok || !set[e.WRID] {
		return false
	}
	delete(set, e.WRID)
	if len(set) == 0 {
		delete(s.staleWRIDs, e.QPN)
	}
	s.mStaleDropped.Inc()
	return true
}

// Len reports the completions the application may poll right now: the
// fake CQ plus — outside wait-before-stop — the real CQ (§3.4: during
// WBS the application is directed to the fake CQ only).
func (cq *CQ) Len() int {
	if cq.sess.wbsActive() {
		return len(cq.fake)
	}
	return len(cq.fake) + cq.v.Len()
}

// wbsActive reports whether any wait-before-stop is draining this
// session's real CQs right now.
func (s *Session) wbsActive() bool { return s.wbsDepth > 0 }

// WaitNonEmpty parks the caller until completions are available (Len),
// standing in for the application's busy-poll loop. It re-checks the
// freeze gate and Len at the instant of each event that can change Len:
// during the blackout it parks on the freeze gate, during
// wait-before-stop it sees the fake CQ only, and after restoration the
// new real CQ.
func (cq *CQ) WaitNonEmpty() {
	cq.sess.activePollers++
	defer func() { cq.sess.activePollers-- }()
	for {
		cq.sess.Proc.Gate()
		if cq.Len() > 0 {
			return
		}
		cq.wake.Wait()
	}
}

// ReqNotify arms the CQ for an event.
func (cq *CQ) ReqNotify() { cq.v.ReqNotify() }

// ActivePollers reports how many procs are blocked in WaitNonEmpty on
// any of the session's CQs. After traffic quiesces it must be zero —
// the "every poller drains" invariant of the chaos harness.
func (s *Session) ActivePollers() int { return s.activePollers }

// translateCQE rewrites the physical QPN in a completion to the virtual
// one in place, consulting the temporary table for pre-migration QPNs
// (§3.4). The fast path is one read of the shared physical→virtual
// array (§3.3).
func (s *Session) translateCQE(cq *CQ, e *rnic.CQE) {
	if v, ok := s.daemon.qpn.lookup(e.QPN); ok {
		e.QPN = v
		return
	}
	if v, ok := cq.tempQPN[e.QPN]; ok {
		e.QPN = v
	}
}

// translateFakeCQE translates a fake-CQ entry. Entries parked during
// wait-before-stop carry the *source* device's physical QPNs, and each
// device numbers QPs independently, so after a migration the
// destination's live table may map the same number to an unrelated QP;
// the temporary table installed at restore time must win.
func (s *Session) translateFakeCQE(cq *CQ, e *rnic.CQE) {
	if v, ok := cq.tempQPN[e.QPN]; ok {
		e.QPN = v
		return
	}
	if v, ok := s.daemon.qpn.lookup(e.QPN); ok {
		e.QPN = v
	}
}

// absorb performs the library bookkeeping for one raw completion: it
// pops the SQ window (a completion for WR k retires every WR ≤ k, which
// is how unsignaled WRs are accounted) or the RQ/SRQ pending list.
func (s *Session) absorb(cq *CQ, e rnic.CQE) {
	vq := e.QPN
	if v, ok := s.daemon.translateQPN(e.QPN); ok {
		vq = v
	} else if v, ok := cq.tempQPN[e.QPN]; ok {
		vq = v
	}
	qp, ok := s.byVQPN[vq]
	if !ok {
		return
	}
	if e.Opcode == rnic.OpRecv {
		if qp.srq != nil {
			retireRecvWR(&qp.srq.pending, e.WRID)
			return
		}
		retireRecvWR(&qp.pendingRecvs, e.WRID)
		return
	}
	for i := 0; i < qp.unfinished.Len(); i++ {
		if qp.unfinished.At(i).wr.WRID == e.WRID {
			qp.unfinished.Drop(i + 1)
			return
		}
	}
	// A flush/error completion may not match (already popped); ignore.
}

// retireRecvWR removes the first pending receive WR matching the
// completed WRID. Receive completions are one per WR (never coalesced
// like unsignaled sends) but can surface out of posting order — across
// an SRQ shared by several QPs, or after go-back-N recovery — so the
// list is matched like the SQ path rather than popped head-first;
// popping by count would desync the list and make restore replay the
// wrong receive WRs. Recv WRIDs recycle, so the first occurrence is the
// oldest posting; an error/flush completion whose WR was already
// retired leaves the list untouched.
func retireRecvWR(pend *fifo.Queue[rnic.RecvWQE], wrid uint64) {
	for i := 0; i < pend.Len(); i++ {
		if pend.At(i).WRID == wrid {
			pend.Remove(i) // usually i is 0
			return
		}
	}
}

// Sched is a convenience accessor for workloads built on the session.
func (s *Session) Sched() *sim.Scheduler { return s.ctx.Scheduler() }

// Close tears the session down: every live resource is destroyed
// through the control path (deleting its roadmap records) and the
// session is removed from the host daemon's registries. Applications
// call it at exit; the migration source instead uses the plugin's
// ReclaimSource, which retires the superseded physical resources while
// the session itself lives on at the destination.
func (s *Session) Close() {
	s.Proc.Gate()
	d := s.daemon
	spares := d.unregister(s)
	for _, qp := range s.sortedQPs() {
		// A teardown can land mid-migration: the wrapper may still hold
		// the pre-switch incarnation (kept until its completions drain),
		// and a migration record may hold a partner spare for it. Both
		// are live physical QPs with daemon-table entries; destroying
		// only the active incarnation leaks them on the device — the
		// many-session teardown leak.
		if qp.oldV != nil {
			oldPhys := qp.oldV.QPN()
			qp.oldV.Destroy()
			d.unmapQPN(oldPhys)
			qp.oldV = nil
		}
		for _, sp := range spares {
			if sp.qp == qp {
				delete(d.pendingNSent, sp.v.QPN())
				sp.v.Destroy()
			}
		}
		phys := qp.v.QPN()
		qp.v.Destroy()
		d.unmapQPN(phys)
		delete(s.qps, qp.id)
		delete(s.byVQPN, qp.vqpn)
	}
	// Every remaining class tears down in ObjID (creation) order: map
	// iteration order would vary across runs, and the destroy records it
	// emits feed the deterministic trace/metrics hashes.
	inOrder(s.mws, func(mw *MW) { mw.v.Dealloc() })
	inOrder(s.mrs, func(mr *MR) { mr.v.Dereg() })
	inOrder(s.dms, func(dm *DM) { dm.v.Free() })
	inOrder(s.srqs, func(srq *SRQ) { srq.v.Destroy() })
	clear(s.mws)
	clear(s.mrs)
	clear(s.dms)
	clear(s.srqs)
	for _, cq := range s.cqs {
		cq.v.Destroy()
	}
	s.cqs = nil
	inOrder(s.pds, func(pd *PD) { pd.v.Dealloc() })
	clear(s.pds)
}
