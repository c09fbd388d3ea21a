package tenant

import (
	"encoding/binary"
	"fmt"
	"slices"

	"migrrdma/internal/codec"
	"migrrdma/internal/core"
	"migrrdma/internal/mem"
	"migrrdma/internal/metrics"
	"migrrdma/internal/oob"
	"migrrdma/internal/rnic"
	"migrrdma/internal/sim"
	"migrrdma/internal/task"
)

// tokenBase/tokenMul define the service's rkey-namespace token
// schedule: session i's token is tokenBase ^ (i * tokenMul). The
// schedule is disclosed to the gateway on open — isolation rests on
// the service validating the *claimed* token against the session's
// assigned one, not on token secrecy.
const (
	tokenBase = 0x7A11BA5E
	tokenMul  = 0x9E3779B1
)

func tokenFor(sess uint32) uint32 { return tokenBase ^ (sess * tokenMul) }

// svcSession is the service-side record of one tenant session.
type svcSession struct {
	token  uint32
	slice  mem.Addr // this tenant's region of the shared arena
	closed bool
	acked  int64
}

// ServiceStats aggregates the provider-side outcome counts.
type ServiceStats struct {
	Opened      int64
	Closed      int64
	Acked       int64
	CrossTenant int64 // ops rejected for claiming a foreign token
	Unknown     int64 // ops for closed/never-opened sessions
	Bounds      int64 // ops targeting outside the tenant slice
	Errors      []string
}

func (st *ServiceStats) errf(format string, args ...any) {
	if len(st.Errors) < 32 {
		st.Errors = append(st.Errors, fmt.Sprintf(format, args...))
	}
}

// Service is the provider process: it owns the shared lanes, PD and
// MR, the tenant session table and the admission checks. It runs
// inside a migratable container; everything here — including the
// session table — is carried by a live migration of that container.
type Service struct {
	Name  string
	Opts  Options
	Sess  *core.Session
	Stats ServiceStats

	ready   *sim.Cond
	isReady bool
	stopped bool

	pd    *core.PD
	cq    *core.CQ
	mr    *core.MR
	lanes []*core.QP
	txSeq []uint64 // per-lane response sequence
	// sge is the serve loop's post scratch: the library copies the list.
	// An attach handler runs in its own proc and may wait at the freeze
	// gate with a list of its own, so it does not use this one.
	sge [1]rnic.SGE

	// sessions is the session table, indexed by session ID: onOpen
	// hands IDs out densely from 0, so the next ID is len(sessions).
	sessions []svcSession
	capSess  int

	reg              *metrics.Registry
	mOpened, mClosed metrics.Counter
	mAcked           metrics.Counter
	mCross, mUnknown metrics.Counter
	mBounds          metrics.Counter
}

// NewService creates a service descriptor; Run starts it inside a
// container process.
func NewService(sched *sim.Scheduler, name string, opts Options) *Service {
	o := opts.withDefaults()
	return &Service{
		Name: name, Opts: o,
		capSess: 2 * o.Sessions,
		ready:   sim.NewCond(sched, "tenant-svc-ready:"+name),
	}
}

// Arena layout: lane receive ring, lane response ring, tenant slices.
func (s *Service) rxSlot(lane, idx int) mem.Addr {
	return tenantArena + mem.Addr((lane*s.Opts.recvDepth()+idx)*msgSize)
}

func (s *Service) txSlot(lane, idx int) mem.Addr {
	base := s.Opts.Lanes * s.Opts.recvDepth() * msgSize
	return tenantArena + mem.Addr(base+(lane*s.Opts.recvDepth()+idx)*msgSize)
}

func (s *Service) sliceAddr(i int) mem.Addr {
	base := 2 * s.Opts.Lanes * s.Opts.recvDepth() * msgSize
	return tenantArena + mem.Addr(base+i*sliceSize)
}

func (s *Service) arenaSize() uint64 {
	return uint64(2*s.Opts.Lanes*s.Opts.recvDepth()*msgSize + s.capSess*sliceSize)
}

// Run is the service process main: map the arena, set up the shared
// verbs resources, register the OOB control handlers and serve lane
// completions until Stop.
func (s *Service) Run(p *task.Process, d *core.Daemon) {
	o := s.Opts
	sess := core.NewSession(p, d)
	s.Sess = sess
	if _, err := p.AS.Map(tenantArena, s.arenaSize(), "tenant-svc"); err != nil {
		panic(err)
	}
	s.pd = sess.AllocPD()
	s.cq = sess.CreateCQ(64+o.Lanes*3*o.recvDepth(), nil)
	mr, err := sess.RegMR(s.pd, tenantArena, s.arenaSize(), rnic.AccessLocalWrite)
	if err != nil {
		panic(err)
	}
	s.mr = mr
	s.initMetrics(d)

	ep := d.Host().Hub.Endpoint("tenant:" + s.Name)
	ep.Handle("attach", s.onAttach)
	ep.Handle("open", s.onOpen)
	ep.Handle("close", s.onClose)
	s.isReady = true
	s.ready.Broadcast()
	s.serve(p)
}

func (s *Service) initMetrics(d *core.Daemon) {
	s.reg = d.Host().Metrics
	b := s.reg.Block("tenant", metrics.L("svc", s.Name), 6)
	s.mOpened = b.Counter("sessions_opened")
	s.mClosed = b.Counter("sessions_closed")
	s.mAcked = b.Counter("ops_acked")
	s.mCross = b.Counter("rejects_cross_tenant")
	s.mUnknown = b.Counter("rejects_unknown_session")
	s.mBounds = b.Counter("rejects_bounds")
}

// perTenant returns the per-session acked/cross-tenant counters when
// PerTenantMetrics is on; zero handles, which discard, otherwise.
func (s *Service) perTenant(sess uint32) (acked, cross metrics.Counter) {
	if !s.Opts.PerTenantMetrics {
		return
	}
	b := s.reg.Block("tenant", metrics.L("svc", s.Name, "sess", fmt.Sprintf("s%04d", sess)), 2)
	return b.Counter("ops_acked"), b.Counter("rejects_cross_tenant")
}

// WaitReady blocks until the control endpoint accepts calls.
func (s *Service) WaitReady() {
	for !s.isReady {
		s.ready.Wait()
	}
}

// Stop ends the serve loop.
func (s *Service) Stop() { s.stopped = true }

// SessionsOpen returns the number of open (not yet closed) sessions.
func (s *Service) SessionsOpen() int {
	n := 0
	for _, t := range s.sessions {
		if !t.closed {
			n++
		}
	}
	return n
}

// onAttach connects the gateway's lane QPs: one shared RC QP per lane,
// receives pre-posted deep enough to absorb a migration thaw.
func (s *Service) onAttach(m oob.Msg) []byte {
	var req attachReq
	codec.MustDecode(m.Body, &req)
	o := s.Opts
	if len(req.Lanes) != o.Lanes {
		return m.Reply(attachResp{Err: fmt.Sprintf("attach: %d lanes, want %d", len(req.Lanes), o.Lanes)})
	}
	if len(s.lanes) != 0 {
		return m.Reply(attachResp{Err: "attach: already attached"})
	}
	var resp attachResp
	for lane, peer := range req.Lanes {
		qp := s.Sess.CreateQP(s.pd, core.QPConfig{
			Type: rnic.RC, SendCQ: s.cq, RecvCQ: s.cq,
			Caps: rnic.QPCaps{MaxSend: 2 * o.LaneDepth, MaxRecv: o.recvDepth() + 8},
		})
		for _, a := range []rnic.ModifyAttr{
			{State: rnic.StateInit},
			{State: rnic.StateRTR, RemoteNode: req.Node, RemoteQPN: peer},
			{State: rnic.StateRTS},
		} {
			if err := qp.Modify(a); err != nil {
				return m.Reply(attachResp{Err: err.Error()})
			}
		}
		for i := 0; i < o.recvDepth(); i++ {
			wr := rnic.RecvWR{WRID: laneWRID(lane, i), SGEs: []rnic.SGE{{
				Addr: s.rxSlot(lane, i), Len: uint32(msgSize), LKey: s.mr.LKey(),
			}}}
			if err := qp.PostRecv(wr); err != nil {
				return m.Reply(attachResp{Err: err.Error()})
			}
		}
		s.lanes = append(s.lanes, qp)
		s.txSeq = append(s.txSeq, 0)
		resp.Lanes = append(resp.Lanes, qp.VQPN())
	}
	return m.Reply(resp)
}

// session returns the record of session id, or nil if it was never
// opened. The pointer is into the table, which onOpen may move: onClose
// and admit, the callers, finish with it before anything can park.
func (s *Service) session(id uint32) *svcSession {
	if int(id) >= len(s.sessions) {
		return nil
	}
	return &s.sessions[id]
}

// onOpen admits Count new tenant sessions and returns their ID range
// and the token schedule.
func (s *Service) onOpen(m oob.Msg) []byte {
	var req openReq
	codec.MustDecode(m.Body, &req)
	if req.Count <= 0 {
		req.Count = 1
	}
	if len(s.sessions)+req.Count > s.capSess {
		return m.Reply(openResp{Err: fmt.Sprintf("open: %d sessions exceed arena capacity %d", len(s.sessions)+req.Count, s.capSess)})
	}
	base := uint32(len(s.sessions))
	s.sessions = slices.Grow(s.sessions, req.Count)
	for i := 0; i < req.Count; i++ {
		id := base + uint32(i)
		s.sessions = append(s.sessions, svcSession{token: tokenFor(id), slice: s.sliceAddr(int(id))})
	}
	s.Stats.Opened += int64(req.Count)
	s.mOpened.Add(int64(req.Count))
	return m.Reply(openResp{Base: base, TokenBase: tokenBase, TokenMul: tokenMul})
}

// onClose retires a session. The claimed token must match: closing is
// a namespace operation like any other.
func (s *Service) onClose(m oob.Msg) []byte {
	var req closeReq
	codec.MustDecode(m.Body, &req)
	t := s.session(req.Sess)
	if t == nil || t.closed {
		return m.Reply(closeResp{Err: fmt.Sprintf("close: unknown session %d", req.Sess)})
	}
	if t.token != req.Token {
		s.Stats.CrossTenant++
		s.mCross.Inc()
		return m.Reply(closeResp{Err: fmt.Sprintf("close: token mismatch for session %d", req.Sess)})
	}
	t.closed = true
	s.Stats.Closed++
	s.mClosed.Inc()
	return m.Reply(closeResp{})
}

// serve is the completion loop: consume lane receives, validate,
// respond, repost.
func (s *Service) serve(p *task.Process) {
	var cqes [64]rnic.CQE
	for !s.stopped {
		p.Gate()
		if s.cq.Len() == 0 {
			s.cq.WaitNonEmpty()
			continue
		}
		for _, e := range cqes[:s.cq.PollInto(cqes[:])] {
			s.consume(e)
		}
	}
}

// consume handles one completion. Response-send completions only free
// CQ space; receive completions carry tenant requests.
func (s *Service) consume(e rnic.CQE) {
	if e.Status != rnic.WCSuccess {
		s.Stats.errf("service CQE error: %v (wrid %#x)", e.Status, e.WRID)
		return
	}
	if e.Opcode != rnic.OpRecv {
		return
	}
	lane, idx := laneOf(e.WRID), slotOf(e.WRID)
	if lane >= len(s.lanes) {
		s.Stats.errf("recv completion for unknown lane %d", lane)
		return
	}
	addr := s.rxSlot(lane, idx)
	h, err := readHeader(s.Sess.Proc.AS, addr)
	if err != nil {
		s.Stats.errf("read request header: %v", err)
		return
	}
	status := s.admit(h)
	s.respond(lane, h, status)
	// Repost the consumed receive.
	s.sge[0] = rnic.SGE{Addr: addr, Len: uint32(msgSize), LKey: s.mr.LKey()}
	wr := rnic.RecvWR{WRID: e.WRID, SGEs: s.sge[:]}
	if err := s.lanes[lane].PostRecv(wr); err != nil {
		s.Stats.errf("repost recv: %v", err)
	}
}

// admit runs the tenancy checks on one request and, when they pass,
// applies the write to the tenant's slice. The order is fixed:
// session, namespace, bounds — so a cross-tenant claim on a closed
// session reports the session, and a foreign token never reaches the
// bounds check (or memory).
func (s *Service) admit(h header) byte {
	t := s.session(h.Sess)
	if t == nil || t.closed {
		s.Stats.Unknown++
		s.mUnknown.Inc()
		return StatusUnknownSession
	}
	mAcked, mCross := s.perTenant(h.Sess)
	if h.Token != t.token {
		s.Stats.CrossTenant++
		s.mCross.Inc()
		mCross.Inc()
		return StatusCrossTenant
	}
	if int(h.Off)+8 > sliceSize {
		s.Stats.Bounds++
		s.mBounds.Inc()
		return StatusBounds
	}
	var stamp [8]byte
	binary.LittleEndian.PutUint64(stamp[:], h.Stamp)
	if err := s.Sess.Proc.AS.Write(t.slice+mem.Addr(h.Off), stamp[:]); err != nil {
		s.Stats.errf("slice write: %v", err)
		return StatusBounds
	}
	t.acked++
	s.Stats.Acked++
	s.mAcked.Inc()
	mAcked.Inc()
	return StatusOK
}

// respond sends the acknowledgement back on the request's lane.
func (s *Service) respond(lane int, req header, status byte) {
	o := s.Opts
	idx := int(s.txSeq[lane] % uint64(o.recvDepth()))
	addr := s.txSlot(lane, idx)
	h := header{Sess: req.Sess, Token: req.Token, Seq: req.Seq,
		Kind: kindResp, Status: status, Stamp: req.Seq}
	if err := writeHeader(s.Sess.Proc.AS, addr, h); err != nil {
		s.Stats.errf("write response header: %v", err)
		return
	}
	s.sge[0] = rnic.SGE{Addr: addr, Len: headerSize, LKey: s.mr.LKey()}
	wr := rnic.SendWR{WRID: s.txSeq[lane], Opcode: rnic.OpSend, Signaled: true, SGEs: s.sge[:]}
	if err := s.lanes[lane].PostSend(wr); err != nil {
		s.Stats.errf("post response: %v", err)
		return
	}
	s.txSeq[lane]++
}

// laneWRID packs (lane, ring slot) into a receive WR-ID.
func laneWRID(lane, idx int) uint64 { return uint64(lane)<<32 | uint64(idx) }

func laneOf(wrid uint64) int { return int(wrid >> 32) }
func slotOf(wrid uint64) int { return int(wrid & 0xFFFFFFFF) }
