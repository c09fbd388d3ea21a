package tenant

import (
	"fmt"
	"time"

	"migrrdma/internal/codec"
	"migrrdma/internal/core"
	"migrrdma/internal/fifo"
	"migrrdma/internal/mem"
	"migrrdma/internal/metrics"
	"migrrdma/internal/oob"
	"migrrdma/internal/rnic"
	"migrrdma/internal/sim"
	"migrrdma/internal/task"
)

// TenantSession is the gateway-side record of one tenant session. The
// counters double as the invariant ledger: exactly-once/in-order
// acknowledgement tracking lives here, so the chaos tier reads the
// guarantees straight off the data structures that enforce them.
type TenantSession struct {
	ID    uint32
	Token uint32
	lane  int

	pendingData   int      // submitted operations not yet on the wire
	pendingProbes []uint32 // cross-tenant tokens to claim, FIFO

	sent    uint64 // next sequence number to assign
	nextAck uint64 // next acknowledgement expected (in-order check)
	// window holds one slot per sequence number from the lowest one not
	// yet acknowledged up to sent, in order, so window.At(i) is sequence
	// number sent-window.Len()+i. Clearing a slot's live bit on its
	// acknowledgement is the exactly-once check; the acknowledged slots
	// at the head leave the ring.
	window fifo.Queue[ackSlot]

	DataSubmitted   int64
	ProbesSubmitted int64
	AckedOK         int64
	NAKCross        int64
	NAKUnknown      int64
	NAKBounds       int64

	credits    int
	lastRefill time.Duration
	stalled    bool
	closed     bool
}

// ackSlot is one sent request in a session's window: the token it
// claimed, and whether its acknowledgement is still due.
type ackSlot struct {
	claimed uint32
	live    bool
}

// unacked returns the number of sent requests not yet acknowledged.
func (s *TenantSession) unacked() int {
	n := 0
	for i := range s.window.Len() {
		if s.window.At(i).live {
			n++
		}
	}
	return n
}

// Pending returns the session's queued (not yet sent) operation count.
func (s *TenantSession) Pending() int { return s.pendingData + len(s.pendingProbes) }

// GatewayStats aggregates the mux-side outcome counts.
type GatewayStats struct {
	Submitted    int64
	Probes       int64
	AckedOK      int64
	NAKs         int64
	CreditStalls int64 // sessions that hit an empty bucket and queued
	Errors       []string
}

func (st *GatewayStats) errf(format string, args ...any) {
	if len(st.Errors) < 32 {
		st.Errors = append(st.Errors, fmt.Sprintf(format, args...))
	}
}

// Gateway is the tenants' host-side multiplexer: it owns the lane QPs
// facing one Service and pumps every tenant session's operations
// through them under per-tenant credit admission.
type Gateway struct {
	Name   string
	Opts   Options
	Target Target
	Sess   *core.Session
	Stats  GatewayStats

	// Violations lists tenancy invariant breaches observed on the
	// acknowledgement stream (duplicate, out-of-order, misdirected or
	// wrongly-admitted responses). Empty means the run held.
	Violations []string

	sched   *sim.Scheduler
	ready   *sim.Cond
	doneC   *sim.Cond
	workC   *sim.Cond
	idleC   *sim.Cond
	isReady bool
	stopped bool
	done    bool

	pd           *core.PD
	cq           *core.CQ
	mr           *core.MR
	ep           *oob.Endpoint
	lanes        []*core.QP
	laneSent     []uint64    // per-lane wire sequence (tx slot cycling)
	laneInflight []int       // per-lane unacknowledged requests
	sge          [1]rnic.SGE // post scratch: the library copies the list

	sessions []*TenantSession
	sessByID map[uint32]*TenantSession
	// laneReady[l] holds the indexes of lane l's sessions that have
	// operations queued, so trySend visits those sessions only, and only
	// on lanes with window; pendingOps is the queued total.
	laneReady  []readySet
	pendingOps int
	// sendSteps counts the ready-set lookups trySend has made: the unit
	// its cost is pinned in (TestSendStepsIndependentOfPopulation).
	sendSteps int
	// refillAt is the pump iteration's refill instant (see refill).
	refillAt time.Duration

	mSubmitted, mProbes, mStalls metrics.Counter
}

// NewGateway creates a gateway descriptor; Run starts it in a process.
func NewGateway(sched *sim.Scheduler, name string, opts Options, target Target) *Gateway {
	opts = opts.withDefaults()
	return &Gateway{
		Name: name, Opts: opts, Target: target,
		sched:     sched,
		laneReady: make([]readySet, opts.Lanes),
		ready:     sim.NewCond(sched, "tenant-gw-ready:"+name),
		doneC:     sim.NewCond(sched, "tenant-gw-done:"+name),
		workC:     sim.NewCond(sched, "tenant-gw-work:"+name),
		idleC:     sim.NewCond(sched, "tenant-gw-idle:"+name),
		sessByID:  make(map[uint32]*TenantSession),
	}
}

// Arena layout: lane request ring, then lane response receive ring.
func (g *Gateway) txSlot(lane, idx int) mem.Addr {
	return tenantArena + mem.Addr((lane*g.Opts.LaneDepth+idx)*msgSize)
}

func (g *Gateway) rxSlot(lane, idx int) mem.Addr {
	base := g.Opts.Lanes * g.Opts.LaneDepth * msgSize
	return tenantArena + mem.Addr(base+(lane*g.Opts.recvDepth()+idx)*msgSize)
}

func (g *Gateway) arenaSize() uint64 {
	return uint64(g.Opts.Lanes * (g.Opts.LaneDepth + g.Opts.recvDepth()) * msgSize)
}

// Run is the gateway process main: map the arena, connect the lanes,
// open the initial session population and pump until Stop and drain.
func (g *Gateway) Run(p *task.Process, d *core.Daemon) {
	o := g.Opts
	sess := core.NewSession(p, d)
	g.Sess = sess
	if _, err := p.AS.Map(tenantArena, g.arenaSize(), "tenant-gw"); err != nil {
		panic(err)
	}
	g.pd = sess.AllocPD()
	g.cq = sess.CreateCQ(64+o.Lanes*(2*o.LaneDepth+o.recvDepth()), nil)
	mr, err := sess.RegMR(g.pd, tenantArena, g.arenaSize(), rnic.AccessLocalWrite)
	if err != nil {
		panic(err)
	}
	g.mr = mr
	b := d.Host().Metrics.Block("tenant", metrics.L("gw", g.Name), 3)
	g.mSubmitted = b.Counter("gw_ops_submitted")
	g.mProbes = b.Counter("gw_probes_submitted")
	g.mStalls = b.Counter("gw_credit_stalls")

	g.ep = d.Host().Hub.Endpoint("tenant-gw:" + g.Name)
	g.attach(d)
	if _, err := g.OpenMore(o.Sessions); err != nil {
		panic("tenant gateway open: " + err.Error())
	}
	g.isReady = true
	g.ready.Broadcast()
	g.pump(p)
	g.done = true
	g.doneC.Broadcast()
}

// attach brings up the lane QPs against the service.
func (g *Gateway) attach(d *core.Daemon) {
	o := g.Opts
	req := attachReq{Node: d.Node()}
	for lane := 0; lane < o.Lanes; lane++ {
		qp := g.Sess.CreateQP(g.pd, core.QPConfig{
			Type: rnic.RC, SendCQ: g.cq, RecvCQ: g.cq,
			Caps: rnic.QPCaps{MaxSend: 2 * o.LaneDepth, MaxRecv: o.recvDepth() + 8},
		})
		if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateInit}); err != nil {
			panic(err)
		}
		for i := 0; i < o.recvDepth(); i++ {
			wr := rnic.RecvWR{WRID: laneWRID(lane, i), SGEs: []rnic.SGE{{
				Addr: g.rxSlot(lane, i), Len: uint32(msgSize), LKey: g.mr.LKey(),
			}}}
			if err := qp.PostRecv(wr); err != nil {
				panic(err)
			}
		}
		g.lanes = append(g.lanes, qp)
		g.laneSent = append(g.laneSent, 0)
		g.laneInflight = append(g.laneInflight, 0)
		req.Lanes = append(req.Lanes, qp.VQPN())
	}
	var resp attachResp
	codec.MustDecode(g.ep.Call(g.Target.Node, "tenant:"+g.Target.Name, "attach", req), &resp)
	if resp.Err != "" {
		panic("tenant attach: " + resp.Err)
	}
	for lane, peer := range resp.Lanes {
		qp := g.lanes[lane]
		if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: g.Target.Node, RemoteQPN: peer}); err != nil {
			panic(err)
		}
		if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateRTS}); err != nil {
			panic(err)
		}
	}
}

// OpenMore opens count additional tenant sessions over the OOB
// handshake and returns the index of the first new session. Safe to
// call from a driver proc while the pump runs.
func (g *Gateway) OpenMore(count int) (int, error) {
	var resp openResp
	codec.MustDecode(g.ep.Call(g.Target.Node, "tenant:"+g.Target.Name, "open", openReq{Count: count}), &resp)
	if resp.Err != "" {
		return 0, fmt.Errorf("%s", resp.Err)
	}
	first := len(g.sessions)
	now := g.sched.Now()
	// One allocation for the batch: the slice is never resized, so the
	// pointers Session hands out stay valid.
	batch := make([]TenantSession, count)
	for i := range batch {
		s := &batch[i]
		id := resp.Base + uint32(i)
		*s = TenantSession{
			ID: id, Token: resp.TokenBase ^ (id * resp.TokenMul),
			lane:    int(id) % g.Opts.Lanes,
			credits: g.Opts.Credits, lastRefill: now,
		}
		g.sessions = append(g.sessions, s)
		g.sessByID[id] = s
	}
	return first, nil
}

// CloseSession retires session i over the OOB handshake. The caller
// must have drained the session first (no pending or in-flight
// operations); later submissions against it are invariant violations.
func (g *Gateway) CloseSession(i int) error {
	s := g.sessions[i]
	var resp closeResp
	codec.MustDecode(g.ep.Call(g.Target.Node, "tenant:"+g.Target.Name, "close",
		closeReq{Sess: s.ID, Token: s.Token}), &resp)
	if resp.Err != "" {
		return fmt.Errorf("%s", resp.Err)
	}
	s.closed = true
	return nil
}

// WaitReady blocks until the lanes are connected and the initial
// sessions are open.
func (g *Gateway) WaitReady() {
	for !g.isReady {
		g.ready.Wait()
	}
}

// Wait blocks until the pump exited (Stop plus full drain).
func (g *Gateway) Wait() {
	for !g.done {
		g.doneC.Wait()
	}
}

// Stop makes the pump exit once every queued and in-flight operation
// has been acknowledged — queued work is drained, never dropped.
func (g *Gateway) Stop() {
	g.stopped = true
	g.workC.Broadcast()
}

// Submit queues n data operations on session i.
func (g *Gateway) Submit(i, n int) {
	s := g.sessions[i]
	s.pendingData += n
	g.markQueued(i, n)
	s.DataSubmitted += int64(n)
	g.Stats.Submitted += int64(n)
	g.mSubmitted.Add(int64(n))
	g.workC.Broadcast()
}

// SubmitAll queues n data operations on every open session.
func (g *Gateway) SubmitAll(n int) {
	for i, s := range g.sessions {
		if !s.closed {
			g.Submit(i, n)
		}
	}
}

// Probe queues a cross-tenant access attempt: session i will claim
// session victim's namespace token. The service must NAK it.
func (g *Gateway) Probe(i, victim int) {
	s := g.sessions[i]
	s.pendingProbes = append(s.pendingProbes, g.sessions[victim].Token)
	g.markQueued(i, 1)
	s.ProbesSubmitted++
	g.Stats.Probes++
	g.mProbes.Inc()
	g.workC.Broadcast()
}

// Drain blocks until no operation is pending or in flight.
func (g *Gateway) Drain() {
	for g.pendingTotal()+g.inflightTotal() > 0 {
		g.idleC.Wait()
	}
}

// Session returns the i-th session's ledger for assertions.
func (g *Gateway) Session(i int) *TenantSession { return g.sessions[i] }

// NumSessions returns the session count (open and closed).
func (g *Gateway) NumSessions() int { return len(g.sessions) }

func (g *Gateway) pendingTotal() int { return g.pendingOps }

// markQueued records n newly queued operations on session i. A session
// is in its lane's ready set exactly while it has operations queued:
// trySend takes it out when it posts the last one.
func (g *Gateway) markQueued(i, n int) {
	if n <= 0 {
		return
	}
	g.laneReady[g.sessions[i].lane].add(i)
	g.pendingOps += n
}

// nextSendable returns the lowest session index in [from, limit) that is
// ready on a lane with window left, or limit if there is none. It reads
// the sets and the windows live, so a walk that calls it with from one
// past its last answer visits what a walk over every session that skips
// the idle ones and those on a full lane would visit, when it would: a
// session marked while the walk is parked is seen if it lies ahead, and
// a lane that fills mid-walk drops out. consulted is the number of sets
// it looked in — one per lane with window — which is all it costs.
func nextSendable(ready []readySet, laneInflight []int, depth, from, limit int) (i, consulted int) {
	i = limit
	for lane := range ready {
		if laneInflight[lane] >= depth {
			continue
		}
		consulted++
		if j := ready[lane].next(from); j >= 0 && j < i {
			i = j
		}
	}
	return i, consulted
}

func (g *Gateway) inflightTotal() int {
	n := 0
	for _, l := range g.laneInflight {
		n += l
	}
	return n
}

// pump is the mux loop: refill credits, move queued operations onto
// lanes, consume completions. It waits on the CQ while work is in
// flight, on the refill clock while work is queued on credits, and on
// the work condition when idle.
func (g *Gateway) pump(p *task.Process) {
	var cqes [64]rnic.CQE
	for {
		p.Gate()
		g.refill()
		progress := g.trySend()
		polled := false
		for _, e := range cqes[:g.cq.PollInto(cqes[:])] {
			g.complete(e)
			polled = true
		}
		if progress || polled {
			continue
		}
		switch {
		case g.stopped && g.pendingTotal() == 0 && g.inflightTotal() == 0:
			return
		case g.inflightTotal() > 0:
			g.cq.WaitNonEmpty()
		case g.pendingTotal() > 0:
			g.sched.Sleep(g.Opts.RefillEvery)
		default:
			g.workC.Wait()
		}
	}
}

// refill fixes the instant the credit buckets are topped up to for this
// pump iteration. The top-up itself is lazy: topUp applies it to a
// session when trySend is about to read its credits. A bucket is a pure
// function of virtual time, so skipping the sessions nobody reads
// changes no balance that is ever observed.
func (g *Gateway) refill() { g.refillAt = g.sched.Now() }

// topUp credits s with the refill ticks elapsed up to refillAt.
func (g *Gateway) topUp(s *TenantSession) {
	o := g.Opts
	ticks := int64((g.refillAt - s.lastRefill) / o.RefillEvery)
	if ticks <= 0 {
		return
	}
	s.lastRefill += time.Duration(ticks) * o.RefillEvery
	s.credits += int(ticks) * o.RefillAmount
	if s.credits > o.Credits {
		s.credits = o.Credits
	}
}

// trySend moves queued operations onto lanes, round-robin across the
// sessions with queued work in ID order, until every session is blocked
// on its lane window, its credit bucket or an empty queue. Probes go
// first (they bypass admission — an attacker does not wait politely);
// data spends one credit per operation. Sessions on a full lane are not
// visited at all: a visit would read the window and move on.
func (g *Gateway) trySend() bool {
	progress := false
	for again := true; again; {
		again = false
		n := len(g.sessions)
		for from := 0; ; {
			i, consulted := nextSendable(g.laneReady, g.laneInflight, g.Opts.LaneDepth, from, n)
			g.sendSteps += consulted
			if i >= n {
				break
			}
			from = i + 1
			s := g.sessions[i]
			var claimed uint32
			probe := len(s.pendingProbes) > 0
			if probe {
				claimed = s.pendingProbes[0]
			} else {
				g.topUp(s)
				if s.credits <= 0 {
					if !s.stalled {
						s.stalled = true
						g.Stats.CreditStalls++
						g.mStalls.Inc()
					}
					continue
				}
				claimed = s.Token
			}
			if err := g.post(s, claimed); err != nil {
				g.Stats.errf("post session %d: %v", s.ID, err)
				return progress
			}
			if probe {
				s.pendingProbes = s.pendingProbes[1:]
			} else {
				s.pendingData--
				s.credits--
				s.stalled = false
			}
			g.pendingOps--
			if s.Pending() == 0 {
				g.laneReady[s.lane].remove(i)
			}
			again, progress = true, true
		}
	}
	return progress
}

// post stamps one request into the session's lane ring and sends it.
func (g *Gateway) post(s *TenantSession, claimed uint32) error {
	o := g.Opts
	lane := s.lane
	seq := s.sent
	idx := int(g.laneSent[lane] % uint64(o.LaneDepth))
	addr := g.txSlot(lane, idx)
	h := header{Sess: s.ID, Token: claimed, Seq: seq, Kind: kindData,
		Off: uint32((seq % 7) * 8), Stamp: seq}
	if err := writeHeader(g.Sess.Proc.AS, addr, h); err != nil {
		return err
	}
	g.sge[0] = rnic.SGE{Addr: addr, Len: uint32(msgSize), LKey: g.mr.LKey()}
	wr := rnic.SendWR{WRID: g.laneSent[lane], Opcode: rnic.OpSend, Signaled: true, SGEs: g.sge[:]}
	if err := g.lanes[lane].PostSend(wr); err != nil {
		return err
	}
	g.laneSent[lane]++
	g.laneInflight[lane]++
	s.window.Push(ackSlot{claimed: claimed, live: true})
	s.sent++
	return nil
}

func (g *Gateway) violationf(format string, args ...any) {
	if len(g.Violations) < 64 {
		g.Violations = append(g.Violations, fmt.Sprintf(format, args...))
	}
}

// complete handles one completion. Request-send completions only free
// CQ space; response receives drive the acknowledgement ledger.
func (g *Gateway) complete(e rnic.CQE) {
	if e.Status != rnic.WCSuccess {
		g.Stats.errf("gateway CQE error: %v (wrid %#x)", e.Status, e.WRID)
		return
	}
	if e.Opcode != rnic.OpRecv {
		return
	}
	lane, idx := laneOf(e.WRID), slotOf(e.WRID)
	if lane >= len(g.lanes) {
		g.Stats.errf("recv completion for unknown lane %d", lane)
		return
	}
	addr := g.rxSlot(lane, idx)
	h, err := readHeader(g.Sess.Proc.AS, addr)
	if err != nil {
		g.Stats.errf("read response header: %v", err)
		return
	}
	g.laneInflight[lane]--
	// Repost before accounting so the service can never overrun the
	// response ring.
	g.sge[0] = rnic.SGE{Addr: addr, Len: uint32(msgSize), LKey: g.mr.LKey()}
	if err := g.lanes[lane].PostRecv(rnic.RecvWR{WRID: e.WRID, SGEs: g.sge[:]}); err != nil {
		g.Stats.errf("repost recv: %v", err)
	}
	g.account(lane, h)
	if g.pendingTotal()+g.inflightTotal() == 0 {
		g.idleC.Broadcast()
	}
}

// account applies one acknowledgement to the session ledger, recording
// every tenancy invariant breach it can observe: unknown or
// misdirected responses, duplicate or out-of-order acknowledgement,
// payload stamp corruption, a cross-tenant claim that was not NAKed,
// and a legitimate operation that was rejected.
func (g *Gateway) account(lane int, h header) {
	if h.Kind != kindResp {
		g.violationf("lane %d: response with kind %d", lane, h.Kind)
		return
	}
	s := g.sessByID[h.Sess]
	if s == nil {
		g.violationf("ack for unknown session %d", h.Sess)
		return
	}
	if s.lane != lane {
		g.violationf("session %d: ack on lane %d, want %d", h.Sess, lane, s.lane)
	}
	lo := s.sent - uint64(s.window.Len())
	if h.Seq < lo || h.Seq >= s.sent || !s.window.At(int(h.Seq-lo)).live {
		g.violationf("session %d: duplicate or unsolicited ack seq %d", h.Sess, h.Seq)
		return
	}
	slot := s.window.At(int(h.Seq - lo))
	claimed := slot.claimed
	slot.live = false
	for s.window.Len() > 0 && !s.window.Front().live {
		s.window.Pop()
	}
	if h.Seq != s.nextAck {
		g.violationf("session %d: ack seq %d, want %d (order)", h.Sess, h.Seq, s.nextAck)
	}
	s.nextAck = h.Seq + 1
	if h.Stamp != h.Seq {
		g.violationf("session %d: ack stamp %d, want %d (corruption)", h.Sess, h.Stamp, h.Seq)
	}
	probe := claimed != s.Token
	switch {
	case probe && h.Status == StatusCrossTenant:
		s.NAKCross++
		g.Stats.NAKs++
	case probe:
		g.violationf("session %d: cross-tenant claim %#x admitted with status %d (isolation breach)",
			h.Sess, claimed, h.Status)
	case h.Status == StatusOK:
		s.AckedOK++
		g.Stats.AckedOK++
	case h.Status == StatusUnknownSession && s.closed:
		s.NAKUnknown++
		g.Stats.NAKs++
	case h.Status == StatusBounds:
		s.NAKBounds++
		g.Stats.NAKs++
		g.violationf("session %d: in-slice write seq %d rejected for bounds", h.Sess, h.Seq)
	default:
		g.violationf("session %d: data op seq %d rejected with status %d", h.Sess, h.Seq, h.Status)
	}
}

// CheckInvariants audits the final ledger once traffic has drained:
// nothing queued, nothing in flight, every data operation acknowledged
// exactly once, every cross-tenant probe NAKed. It appends to (and
// returns) the violations observed live on the acknowledgement stream.
func (g *Gateway) CheckInvariants() []string {
	v := append([]string{}, g.Violations...)
	add := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }
	for _, s := range g.sessions {
		if n := s.Pending(); n != 0 {
			add("session %d: %d operations still queued (dropped work)", s.ID, n)
		}
		if n := s.unacked(); n != 0 {
			add("session %d: %d operations never acknowledged", s.ID, n)
		}
		if s.AckedOK != s.DataSubmitted {
			add("session %d: %d data ops submitted, %d acknowledged (exactly-once breach)",
				s.ID, s.DataSubmitted, s.AckedOK)
		}
		if s.NAKCross != s.ProbesSubmitted {
			add("session %d: %d cross-tenant probes, %d NAKed (isolation breach)",
				s.ID, s.ProbesSubmitted, s.NAKCross)
		}
	}
	for _, e := range g.Stats.Errors {
		add("gateway error: %s", e)
	}
	return v
}
