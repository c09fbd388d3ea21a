// Package perftest reimplements the workload generator of the paper's
// evaluation (linux-rdma/perftest, §5.1): bandwidth-style tests over
// SEND/RECV, WRITE, READ and ATOMIC verbs with a configurable message
// size, queue depth and QP count, plus the paper's three extensions —
// WR-ID sequence checking for the §5.3 correctness study, a one-to-many
// communication pattern for Fig. 4(c), and per-operation cost sampling
// for Table 4.
//
// Both ends run on the MigrRDMA guest library (internal/core), so a
// perftest process is migratable without modification, exactly as the
// paper migrates unmodified perftest binaries.
package perftest

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"time"

	"migrrdma/internal/codec"
	"migrrdma/internal/core"
	"migrrdma/internal/mem"
	"migrrdma/internal/oob"
	"migrrdma/internal/rnic"
	"migrrdma/internal/sim"
	"migrrdma/internal/task"
)

// Options configures a test.
type Options struct {
	Verb       rnic.Opcode // OpSend, OpWrite, OpRead, OpFetchAdd
	MsgSize    int
	QueueDepth int
	NumQPs     int
	// Messages per QP; 0 runs until Stop.
	Messages int
	// CheckOrder verifies WR-ID sequence and payload stamps (§5.3).
	CheckOrder bool
	// UseEvents consumes completions through a completion channel
	// (interrupt mode) instead of polling.
	UseEvents bool
	// PostGap throttles the client: a pause between posts. Zero means
	// best-effort line rate (the paper's default). Large-N control-path
	// experiments use it to keep simulated data volume tractable.
	PostGap time.Duration
	// LatencyMode runs one operation at a time (queue depth 1) and
	// records per-op post→completion latency samples (ib_send_lat /
	// ib_write_lat behaviour).
	LatencyMode bool
	// RecvDepth sizes the server's pre-posted receive ring for two-sided
	// verbs; zero means QueueDepth (the historical behaviour). Real RDMA
	// services over-provision the RQ so a stall in the polling loop does
	// not turn into RNR flow control; the migration experiments use a
	// deep ring so the thaw window is absorbed by posted receives.
	RecvDepth int
}

func (o Options) withDefaults() Options {
	if o.LatencyMode {
		o.QueueDepth = 1
	}
	if o.MsgSize == 0 {
		o.MsgSize = 4096
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.RecvDepth == 0 {
		o.RecvDepth = o.QueueDepth
	}
	if o.NumQPs == 0 {
		o.NumQPs = 1
	}
	return o
}

// bufferArena is where perftest maps its data buffer.
const bufferArena = mem.Addr(0x10_0000_0000)

// ringDepth is the larger of the send and receive rings: the buffer
// must fit whichever side slots more WRs.
func (o Options) ringDepth() int {
	if o.RecvDepth > o.QueueDepth {
		return o.RecvDepth
	}
	return o.QueueDepth
}

// bufSize returns the shared data buffer size: one slot per outstanding
// WR per QP in CheckOrder mode, one queue-depth window otherwise.
func (o Options) bufSize() uint64 {
	if o.CheckOrder {
		return uint64(o.NumQPs * o.ringDepth() * o.MsgSize)
	}
	n := uint64(o.ringDepth() * o.MsgSize)
	if n > 8<<20 {
		n = 8 << 20
	}
	if n < uint64(o.MsgSize) {
		n = uint64(o.MsgSize)
	}
	return n
}

// slot returns the buffer offset for a message.
func (o Options) slot(qpIdx int, seq uint64) mem.Addr {
	if o.CheckOrder {
		return bufferArena + mem.Addr((uint64(qpIdx*o.QueueDepth)+(seq%uint64(o.QueueDepth)))*uint64(o.MsgSize))
	}
	return bufferArena + mem.Addr((seq%uint64(o.QueueDepth))*uint64(o.MsgSize)%(o.bufSize()-uint64(o.MsgSize)+1)&^63)
}

// Stats aggregates a test side's results.
type Stats struct {
	Completed int64
	Bytes     int64
	Errors    []string

	// Latency samples (client side, LatencyMode only): one duration per
	// completed operation, post→completion.
	LatSamples []time.Duration
}

// LatPercentile returns the p-th percentile operation latency (0–100).
func (s *Stats) LatPercentile(p float64) time.Duration {
	if len(s.LatSamples) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(s.LatSamples))
	copy(sorted, s.LatSamples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

// LatAvg returns the mean operation latency.
func (s *Stats) LatAvg() time.Duration {
	if len(s.LatSamples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s.LatSamples {
		sum += d
	}
	return sum / time.Duration(len(s.LatSamples))
}

func (s *Stats) errf(format string, args ...any) {
	if len(s.Errors) < 32 {
		s.Errors = append(s.Errors, fmt.Sprintf(format, args...))
	}
}

// connectReq is the out-of-band connection exchange (applications
// conventionally exchange QPNs, rkeys and buffer addresses over
// sockets; the RDMA library is unaware of it, §3.3).
type connectReq struct {
	Node    string
	VQPN    uint32
	Verb    rnic.Opcode
	MsgSize int
	Depth   int
}

type connectResp struct {
	VQPN    uint32
	RKey    uint32
	BufAddr uint64
	Err     string
}

// --- Server -------------------------------------------------------------------

// Server is the passive/receiving side: it accepts connections on an
// out-of-band endpoint, pre-posts receives for two-sided verbs, and
// (when polling) consumes completions forever.
type Server struct {
	Name string
	Opts Options

	Sess  *core.Session
	Stats Stats

	ready   *sim.Cond
	isReady bool
	stopped bool

	pd *core.PD
	cq *core.CQ
	ch *core.CompChannel
	mr *core.MR
	// qps holds the accepted QPs in accept order, which slots their
	// receive buffers; byVQPN finds a completion's QP in one probe.
	qps    []serverQP
	byVQPN map[uint32]int

	// sge and wc are the serve loop's post and poll scratch: the library
	// copies a posted SGE list, so one element serves every repost.
	sge [1]rnic.SGE
	wc  [pollBatch]rnic.CQE
}

// serverQP is one accepted QP and the WR ID it expects next (CheckOrder).
type serverQP struct {
	qp  *core.QP
	seq uint64
}

// pollBatch is how many completions one poll takes.
const pollBatch = 64

// NewServer creates a server descriptor; Run starts it inside a process.
func NewServer(sched *sim.Scheduler, name string, opts Options) *Server {
	return &Server{
		Name: name, Opts: opts.withDefaults(),
		byVQPN: make(map[uint32]int),
		ready:  sim.NewCond(sched, "pt-server-ready:"+name),
	}
}

// Run is the server process main. It sets up resources, registers the
// connection handler and serves completions until Stop.
func (s *Server) Run(p *task.Process, d *core.Daemon) {
	o := s.Opts
	sess := core.NewSession(p, d)
	s.Sess = sess
	if _, err := p.AS.Map(bufferArena, o.bufSize(), "pt-buffer"); err != nil {
		panic(err)
	}
	s.pd = sess.AllocPD()
	if o.UseEvents {
		s.ch = sess.CreateCompChannel()
	}
	s.cq = sess.CreateCQ(64+o.NumQPs*(o.QueueDepth+o.RecvDepth), s.ch)
	mr, err := sess.RegMR(s.pd, bufferArena, o.bufSize(),
		rnic.AccessLocalWrite|rnic.AccessRemoteRead|rnic.AccessRemoteWrite|rnic.AccessRemoteAtomic)
	if err != nil {
		panic(err)
	}
	s.mr = mr
	ep := d.Host().Hub.Endpoint("pt:" + s.Name)
	ep.Handle("connect", s.onConnect)
	s.isReady = true
	s.ready.Broadcast()
	s.serve(p)
}

// WaitReady blocks until the server accepts connections.
func (s *Server) WaitReady() {
	for !s.isReady {
		s.ready.Wait()
	}
}

// onConnect accepts one client QP: create a matching QP, connect it,
// and return our virtual QPN, rkey and buffer address.
func (s *Server) onConnect(m oob.Msg) []byte {
	var req connectReq
	codec.MustDecode(m.Body, &req)
	o := s.Opts
	qp := s.Sess.CreateQP(s.pd, core.QPConfig{
		Type: rnic.RC, SendCQ: s.cq, RecvCQ: s.cq,
		Caps: rnic.QPCaps{MaxSend: o.QueueDepth * 2, MaxRecv: o.QueueDepth + o.RecvDepth},
	})
	for _, a := range []rnic.ModifyAttr{
		{State: rnic.StateInit},
		{State: rnic.StateRTR, RemoteNode: req.Node, RemoteQPN: req.VQPN},
		{State: rnic.StateRTS},
	} {
		if err := qp.Modify(a); err != nil {
			return m.Reply(connectResp{Err: err.Error()})
		}
	}
	idx := len(s.qps)
	s.qps = append(s.qps, serverQP{qp: qp})
	s.byVQPN[qp.VQPN()] = idx
	// Pre-post receives for two-sided traffic.
	if req.Verb == rnic.OpSend || req.Verb == rnic.OpSendImm {
		for i := 0; i < o.RecvDepth; i++ {
			s.sge[0] = rnic.SGE{Addr: s.recvSlot(idx, uint64(i)), Len: uint32(req.MsgSize), LKey: s.mr.LKey()}
			if err := qp.PostRecv(rnic.RecvWR{WRID: uint64(i), SGEs: s.sge[:]}); err != nil {
				return m.Reply(connectResp{Err: err.Error()})
			}
		}
	}
	return m.Reply(connectResp{VQPN: qp.VQPN(), RKey: s.mr.RKey(), BufAddr: uint64(bufferArena)})
}

// recvSlot places receive buffers; in CheckOrder mode each QP gets its
// own slot window so payloads can be verified. The ring is RecvDepth
// deep (== QueueDepth unless over-provisioned), and the client's send
// slotting is untouched — each side addresses its own process memory.
func (s *Server) recvSlot(qpIdx int, seq uint64) mem.Addr {
	o := s.Opts
	idx := qpIdx % o.NumQPs
	rd := uint64(o.RecvDepth)
	if o.CheckOrder {
		return bufferArena + mem.Addr((uint64(idx)*rd+(seq%rd))*uint64(o.MsgSize))
	}
	return bufferArena + mem.Addr((seq%rd)*uint64(o.MsgSize)%(o.bufSize()-uint64(o.MsgSize)+1)&^63)
}

// serve is the completion loop: consume receive completions, verify
// order/content, repost.
func (s *Server) serve(p *task.Process) {
	o := s.Opts
	for !s.stopped {
		p.Gate()
		if o.UseEvents {
			s.cq.ReqNotify()
			if s.cq.Len() == 0 {
				if got := s.ch.Get(); got == nil {
					continue
				}
			}
		} else if s.cq.Len() == 0 {
			s.cq.WaitNonEmpty()
			continue
		}
		for _, e := range s.wc[:s.cq.PollInto(s.wc[:])] {
			s.consume(e)
		}
	}
}

// consume handles one completion on the server.
func (s *Server) consume(e rnic.CQE) {
	if e.Status != rnic.WCSuccess {
		s.Stats.errf("server CQE error: %v (wrid %d)", e.Status, e.WRID)
		return
	}
	if e.Opcode != rnic.OpRecv {
		return
	}
	s.Stats.Completed++
	s.Stats.Bytes += int64(e.ByteLen)
	idx, ok := s.byVQPN[e.QPN]
	if !ok {
		s.Stats.errf("completion for unknown QPN %#x", e.QPN)
		return
	}
	q := &s.qps[idx]
	want := q.seq
	if s.Opts.CheckOrder {
		if e.WRID != want%uint64(s.Opts.RecvDepth) {
			s.Stats.errf("QP %#x: recv WRID %d, want %d (lost/dup/reorder)", e.QPN, e.WRID, want%uint64(s.Opts.RecvDepth))
		}
		var stamp [8]byte
		if err := s.Sess.Proc.AS.Read(s.recvSlot(idx, want), stamp[:]); err == nil {
			got := binary.LittleEndian.Uint64(stamp[:])
			if got != want {
				s.Stats.errf("QP %#x: payload stamp %d, want %d (content corruption)", e.QPN, got, want)
			}
		}
	}
	q.seq = want + 1
	// Repost the consumed receive.
	s.sge[0] = rnic.SGE{Addr: s.recvSlot(idx, want), Len: uint32(s.Opts.MsgSize), LKey: s.mr.LKey()}
	if err := q.qp.PostRecv(rnic.RecvWR{WRID: e.WRID, SGEs: s.sge[:]}); err != nil {
		s.Stats.errf("repost recv: %v", err)
	}
}

// Stop ends the serve loop.
func (s *Server) Stop() { s.stopped = true }

// --- Client -------------------------------------------------------------------

// Target names a server endpoint.
type Target struct {
	Node string
	Name string // server name (endpoint "pt:<name>")
}

// Client is the active side: it connects NumQPs queue pairs across the
// targets (one-to-many when multiple targets are given) and pumps
// best-effort traffic at the configured queue depth.
type Client struct {
	Name    string
	Opts    Options
	Targets []Target

	Sess  *core.Session
	Stats Stats

	doneCond *sim.Cond
	done     bool
	stopped  bool
	readyC   *sim.Cond
	isReady  bool

	pd  *core.PD
	cq  *core.CQ
	mr  *core.MR
	qps []*clientQP
	// byVQPN finds a completion's QP. ready lists the QPs that completed
	// since pump's last pass, the only ones it has to top up; posted and
	// outstanding count WRs over every QP.
	byVQPN              map[uint32]*clientQP
	ready               []*clientQP
	posted, outstanding uint64

	// sge and wc are the pump loop's post and poll scratch.
	sge [1]rnic.SGE
	wc  [pollBatch]rnic.CQE
}

type clientQP struct {
	qp      *core.QP
	idx     int
	rkey    uint32
	raddr   mem.Addr
	posted  uint64
	done    uint64
	nextSeq uint64 // next expected completion WR-ID (CheckOrder)
	ready   bool   // listed in Client.ready
	// lastPost is the post time of the in-flight op (LatencyMode).
	lastPost time.Duration
}

// NewClient creates a client descriptor; Run starts it in a process.
func NewClient(sched *sim.Scheduler, name string, opts Options, targets ...Target) *Client {
	return &Client{
		Name: name, Opts: opts.withDefaults(), Targets: targets,
		doneCond: sim.NewCond(sched, "pt-client-done:"+name),
		readyC:   sim.NewCond(sched, "pt-client-ready:"+name),
	}
}

// Run is the client process main: set up, connect, pump, finish.
func (c *Client) Run(p *task.Process, d *core.Daemon) {
	o := c.Opts
	sess := core.NewSession(p, d)
	c.Sess = sess
	if _, err := p.AS.Map(bufferArena, o.bufSize(), "pt-buffer"); err != nil {
		panic(err)
	}
	c.pd = sess.AllocPD()
	c.cq = sess.CreateCQ(64+o.NumQPs*o.QueueDepth*2, nil)
	mr, err := sess.RegMR(c.pd, bufferArena, o.bufSize(),
		rnic.AccessLocalWrite|rnic.AccessRemoteRead|rnic.AccessRemoteWrite|rnic.AccessRemoteAtomic)
	if err != nil {
		panic(err)
	}
	c.mr = mr
	ep := d.Host().Hub.Endpoint("pt-cli:" + c.Name)
	c.qps, c.ready = make([]*clientQP, 0, o.NumQPs), make([]*clientQP, 0, o.NumQPs)
	c.byVQPN = make(map[uint32]*clientQP, o.NumQPs)
	for i := 0; i < o.NumQPs; i++ {
		tgt := c.Targets[i%len(c.Targets)]
		qp := sess.CreateQP(c.pd, core.QPConfig{
			Type: rnic.RC, SendCQ: c.cq, RecvCQ: c.cq,
			Caps: rnic.QPCaps{MaxSend: o.QueueDepth * 2, MaxRecv: 8},
		})
		if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateInit}); err != nil {
			panic(err)
		}
		resp := ep.Call(tgt.Node, "pt:"+tgt.Name, "connect", connectReq{
			Node: d.Node(), VQPN: qp.VQPN(), Verb: o.Verb, MsgSize: o.MsgSize, Depth: o.QueueDepth,
		})
		var cr connectResp
		codec.MustDecode(resp, &cr)
		if cr.Err != "" {
			panic("perftest connect: " + cr.Err)
		}
		if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: tgt.Node, RemoteQPN: cr.VQPN}); err != nil {
			panic(err)
		}
		if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateRTS}); err != nil {
			panic(err)
		}
		q := &clientQP{qp: qp, idx: i, rkey: cr.RKey, raddr: mem.Addr(cr.BufAddr), ready: true}
		c.qps, c.ready = append(c.qps, q), append(c.ready, q)
		c.byVQPN[qp.VQPN()] = q
	}
	c.isReady = true
	c.readyC.Broadcast()
	c.pump(p)
	c.done = true
	c.doneCond.Broadcast()
}

// WaitReady blocks until all QPs are connected.
func (c *Client) WaitReady() {
	for !c.isReady {
		c.readyC.Wait()
	}
}

// Wait blocks until the client finished (Messages reached or Stop).
func (c *Client) Wait() {
	for !c.done {
		c.doneCond.Wait()
	}
}

// Stop ends the pump loop after in-flight work completes.
func (c *Client) Stop() { c.stopped = true }

// pump keeps QueueDepth WRs outstanding on every QP, best-effort, until
// each QP has completed Messages WRs (or Stop). A pass tops up only the
// QPs that completed since the last one, every other QP being full or
// finished, and walks them in index order, as a walk over every QP would.
func (c *Client) pump(p *task.Process) {
	o := c.Opts
	for {
		p.Gate()
		slices.SortFunc(c.ready, func(a, b *clientQP) int { return a.idx - b.idx })
		for _, q := range c.ready {
			q.ready = false
			for !c.stopped && q.posted-q.done < uint64(o.QueueDepth) && (o.Messages == 0 || q.posted < uint64(o.Messages)) {
				// In latency mode the pacing gap precedes the post so
				// the post→completion measurement stays clean.
				if o.PostGap > 0 && o.LatencyMode {
					p.Scheduler().Sleep(o.PostGap)
				}
				if err := c.post(q); err != nil {
					c.Stats.errf("post: %v", err)
					return
				}
				if o.PostGap > 0 && !o.LatencyMode {
					p.Scheduler().Sleep(o.PostGap)
				}
			}
		}
		c.ready = c.ready[:0]
		if c.outstanding == 0 && (c.stopped || o.Messages > 0 && c.posted == uint64(len(c.qps)*o.Messages)) {
			return
		}
		c.cq.WaitNonEmpty()
		for _, e := range c.wc[:c.cq.PollInto(c.wc[:])] {
			c.complete(e)
		}
	}
}

// post issues one WR on a QP, stamping the payload in CheckOrder mode.
func (c *Client) post(q *clientQP) error {
	o := c.Opts
	seq := q.posted
	addr := o.slot(q.idx, seq)
	if o.CheckOrder {
		var stamp [8]byte
		binary.LittleEndian.PutUint64(stamp[:], seq)
		if err := c.Sess.Proc.AS.Write(addr, stamp[:]); err != nil {
			return err
		}
	}
	c.sge[0] = rnic.SGE{Addr: addr, Len: uint32(o.MsgSize), LKey: c.mr.LKey()}
	wr := rnic.SendWR{
		WRID:     seq % uint64(o.QueueDepth),
		Opcode:   o.Verb,
		Signaled: true,
		SGEs:     c.sge[:],
	}
	if o.CheckOrder {
		wr.WRID = seq
	}
	switch o.Verb {
	case rnic.OpWrite, rnic.OpWriteImm, rnic.OpRead:
		wr.RemoteAddr = q.raddr + (addr - bufferArena)
		wr.RKey = q.rkey
	case rnic.OpFetchAdd, rnic.OpCompSwap:
		wr.SGEs[0].Len = 8
		wr.RemoteAddr = q.raddr
		wr.RKey = q.rkey
		wr.CompareAdd = 1
	}
	if o.LatencyMode {
		q.lastPost = c.Sess.Sched().Now()
	}
	if err := q.qp.PostSend(wr); err != nil {
		return err
	}
	q.posted++
	c.posted++
	c.outstanding++
	return nil
}

// complete handles one client-side completion.
func (c *Client) complete(e rnic.CQE) {
	if e.Status != rnic.WCSuccess {
		// A failed WR is finished too, and its QP is in the error state:
		// stop posting and let the pump return once the rest of the
		// outstanding WRs have completed or been flushed.
		c.Stats.errf("client CQE error: %v (wrid %d qpn %#x)", e.Status, e.WRID, e.QPN)
		c.outstanding--
		c.stopped = true
		return
	}
	q := c.byVQPN[e.QPN]
	if q == nil {
		c.Stats.errf("completion for unknown QPN %#x", e.QPN)
		return
	}
	if c.Opts.CheckOrder && e.WRID != q.nextSeq {
		c.Stats.errf("QP %#x: send completion WRID %d, want %d", e.QPN, e.WRID, q.nextSeq)
	}
	q.nextSeq++
	q.done++
	c.outstanding--
	if !q.ready {
		q.ready = true
		c.ready = append(c.ready, q)
	}
	c.Stats.Completed++
	c.Stats.Bytes += int64(c.Opts.MsgSize)
	if c.Opts.LatencyMode {
		c.Stats.LatSamples = append(c.Stats.LatSamples, c.Sess.Sched().Now()-q.lastPost)
	}
}

// QPStates summarizes per-QP progress for diagnostics.
func (c *Client) QPStates() []string {
	var out []string
	for _, q := range c.qps {
		out = append(out, fmt.Sprintf("vqpn=%#x state=%v posted=%d done=%d outstanding=%d suspended=%v",
			q.qp.VQPN(), q.qp.State(), q.posted, q.done, q.qp.Outstanding(), q.qp.Suspended()))
	}
	return out
}
