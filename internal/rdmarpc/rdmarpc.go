// Package rdmarpc is a small RPC framework over RDMA SEND/RECV with
// credit-based flow control — the RPC-over-RDMA style of systems the
// paper cites as RDMA consumers (ScaleRPC [8], FaSST-like designs
// [52]). It exists to exercise two-sided traffic patterns (pre-posted
// receive rings, request/response matching, credit replenishment)
// through the MigrRDMA guest library, so live migration can be tested
// against an RPC server rather than a raw byte pump.
//
// Wire format: every message is one SEND whose immediate-value-free
// payload carries [8B request id][4B method length][method][body]. The
// response echoes the request id. Both sides pre-post a fixed window of
// receives; a requester never has more than window outstanding calls.
// Each side's arena is a receive ring of window slots followed by
// window send slots, so a message stays in place until it cannot be
// transmitted again: a call holds its send slot until it returns, and a
// response goes out from the send slot paired with the request's
// receive slot, which the client cannot reach again before it has read
// this response (RC delivers in order and the server answers in order).
package rdmarpc

import (
	"encoding/binary"
	"fmt"

	"migrrdma/internal/codec"
	"migrrdma/internal/core"
	"migrrdma/internal/mem"
	"migrrdma/internal/oob"
	"migrrdma/internal/rnic"
	"migrrdma/internal/sim"
	"migrrdma/internal/task"
)

const (
	// MaxMessage bounds one RPC message (request or response).
	MaxMessage = 4096
	// window is the receive-ring depth and therefore the credit limit.
	window = 32

	serverArena = mem.Addr(0x70_0000_0000)
	clientArena = mem.Addr(0x71_0000_0000)
)

// Handler serves one method.
type Handler func(body []byte) []byte

// Server accepts connections and serves registered methods.
type Server struct {
	Name string

	Sess     *core.Session
	handlers map[string]Handler
	ready    bool
	rdyC     *sim.Cond
	stopped  bool

	pd    *core.PD
	cq    *core.CQ
	mr    *core.MR
	conns []*serverConn
}

type serverConn struct {
	qp   *core.QP
	base mem.Addr // receive-ring slots
	next uint64   // next recv slot to repost
}

// NewServer creates a server descriptor.
func NewServer(sched *sim.Scheduler, name string) *Server {
	return &Server{
		Name:     name,
		handlers: make(map[string]Handler),
		rdyC:     sim.NewCond(sched, "rpc-ready:"+name),
	}
}

// Handle registers a method handler (before Run).
func (s *Server) Handle(method string, h Handler) { s.handlers[method] = h }

// WaitReady blocks until the server accepts connections.
func (s *Server) WaitReady() {
	for !s.ready {
		s.rdyC.Wait()
	}
}

// Stop ends the serve loop.
func (s *Server) Stop() { s.stopped = true }

type rpcOpen struct {
	Node string
	VQPN uint32
}

type rpcAccept struct {
	VQPN uint32
	Err  string
}

// Run is the server process main.
func (s *Server) Run(p *task.Process, d *core.Daemon) {
	sess := core.NewSession(p, d)
	s.Sess = sess
	const maxConns = 64
	arena := uint64(maxConns * 2 * window * MaxMessage)
	if _, err := p.AS.Map(serverArena, arena, "rpc-arena"); err != nil {
		panic(err)
	}
	s.pd = sess.AllocPD()
	s.cq = sess.CreateCQ(maxConns*window*2, nil)
	mr, err := sess.RegMR(s.pd, serverArena, arena, rnic.AccessLocalWrite)
	if err != nil {
		panic(err)
	}
	s.mr = mr
	ep := d.Host().Hub.Endpoint("rpc:" + s.Name)
	ep.Handle("open", func(m oob.Msg) []byte {
		var req rpcOpen
		if err := codec.Decode(m.Body, &req); err != nil {
			return codec.MustEncode(rpcAccept{Err: err.Error()})
		}
		if len(s.conns) == maxConns {
			return codec.MustEncode(rpcAccept{Err: "connection limit"})
		}
		qp := sess.CreateQP(s.pd, core.QPConfig{Type: rnic.RC, SendCQ: s.cq, RecvCQ: s.cq,
			Caps: rnic.QPCaps{MaxSend: window * 2, MaxRecv: window * 2}})
		for _, a := range []rnic.ModifyAttr{
			{State: rnic.StateInit},
			{State: rnic.StateRTR, RemoteNode: m.FromNode, RemoteQPN: req.VQPN},
			{State: rnic.StateRTS},
		} {
			if err := qp.Modify(a); err != nil {
				return codec.MustEncode(rpcAccept{Err: err.Error()})
			}
		}
		conn := &serverConn{
			qp:   qp,
			base: serverArena + mem.Addr(len(s.conns)*2*window*MaxMessage),
		}
		for i := 0; i < window; i++ {
			if err := s.postRecv(conn, uint64(i)); err != nil {
				return codec.MustEncode(rpcAccept{Err: err.Error()})
			}
		}
		s.conns = append(s.conns, conn)
		return codec.MustEncode(rpcAccept{VQPN: qp.VQPN()})
	})
	s.ready = true
	s.rdyC.Broadcast()
	s.serve(p)
}

// postRecv arms one receive-ring slot.
func (s *Server) postRecv(c *serverConn, slot uint64) error {
	return c.qp.PostRecv(rnic.RecvWR{
		WRID: slot,
		SGEs: []rnic.SGE{{Addr: c.base + mem.Addr((slot%window)*MaxMessage), Len: MaxMessage, LKey: s.mr.LKey()}},
	})
}

// serve dispatches inbound requests until Stop.
func (s *Server) serve(p *task.Process) {
	var cqes [16]rnic.CQE
	for !s.stopped {
		p.Gate()
		if s.cq.Len() == 0 {
			s.cq.WaitNonEmpty()
			continue
		}
		for _, e := range cqes[:s.cq.PollInto(cqes[:])] {
			if e.Opcode != rnic.OpRecv || e.Status != rnic.WCSuccess {
				continue
			}
			s.dispatch(p, e)
		}
	}
}

// dispatch serves one request CQE and sends the response.
func (s *Server) dispatch(p *task.Process, e rnic.CQE) {
	conn := s.connByVQPN(e.QPN)
	if conn == nil {
		return
	}
	slotAddr := conn.base + mem.Addr((e.WRID%window)*MaxMessage)
	buf := make([]byte, e.ByteLen)
	if err := p.AS.Read(slotAddr, buf); err != nil {
		return
	}
	id, method, body, err := decodeFrame(buf)
	// Replenish the credit before serving (the slot is consumed).
	_ = s.postRecv(conn, e.WRID+window)
	if err != nil {
		return
	}
	h, ok := s.handlers[method]
	var resp []byte
	if ok {
		resp = h(body)
	} else {
		resp = []byte("rdmarpc: no such method " + method)
	}
	frame := encodeFrame(id, "", resp)
	sendSlot := conn.base + mem.Addr((window+e.WRID%window)*MaxMessage)
	if err := p.AS.Write(sendSlot, frame); err != nil {
		return
	}
	_ = conn.qp.PostSend(rnic.SendWR{
		WRID: id, Opcode: rnic.OpSend, Signaled: true,
		SGEs: []rnic.SGE{{Addr: sendSlot, Len: uint32(len(frame)), LKey: s.mr.LKey()}},
	})
}

func (s *Server) connByVQPN(vqpn uint32) *serverConn {
	for _, c := range s.conns {
		if c.qp.VQPN() == vqpn {
			return c
		}
	}
	return nil
}

// Client is one RPC connection.
type Client struct {
	sess *core.Session
	proc *task.Process
	qp   *core.QP
	cq   *core.CQ
	mr   *core.MR

	nextID uint64
	// freeSend holds the send slots no call owns; empty means the credit
	// window is exhausted.
	freeSend []uint64
	// responses maps request id → response body: a call polls whatever
	// has completed and files the responses that belong to other calls.
	responses map[uint64][]byte
	// One call at a time polls the CQ; the others wait on filed, which
	// the polling call signals after every batch.
	polling bool
	filed   *sim.Cond
}

// Dial connects to the named server.
func Dial(p *task.Process, d *core.Daemon, serverNode, serverName string) (*Client, error) {
	sess := core.NewSession(p, d)
	arena := uint64(2 * window * MaxMessage)
	if _, err := p.AS.Map(clientArena, arena, "rpc-arena"); err != nil {
		return nil, err
	}
	pd := sess.AllocPD()
	cq := sess.CreateCQ(window*4, nil)
	mr, err := sess.RegMR(pd, clientArena, arena, rnic.AccessLocalWrite)
	if err != nil {
		return nil, err
	}
	qp := sess.CreateQP(pd, core.QPConfig{Type: rnic.RC, SendCQ: cq, RecvCQ: cq,
		Caps: rnic.QPCaps{MaxSend: window * 2, MaxRecv: window * 2}})
	if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateInit}); err != nil {
		return nil, err
	}
	c := &Client{sess: sess, proc: p, qp: qp, cq: cq, mr: mr, responses: make(map[uint64][]byte),
		filed: sim.NewCond(p.Scheduler(), "rpc-filed")}
	for i := 0; i < window; i++ {
		c.freeSend = append(c.freeSend, uint64(window+i))
		if err := c.postRecv(uint64(i)); err != nil {
			return nil, err
		}
	}
	ep := d.Host().Hub.Endpoint("rpc-cli:" + p.Name)
	resp := ep.Call(serverNode, "rpc:"+serverName, "open", codec.MustEncode(rpcOpen{Node: d.Node(), VQPN: qp.VQPN()}))
	var acc rpcAccept
	if err := codec.Decode(resp, &acc); err != nil {
		return nil, err
	}
	if acc.Err != "" {
		return nil, fmt.Errorf("rdmarpc: %s", acc.Err)
	}
	if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: serverNode, RemoteQPN: acc.VQPN}); err != nil {
		return nil, err
	}
	if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateRTS}); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Client) postRecv(slot uint64) error {
	return c.qp.PostRecv(rnic.RecvWR{
		WRID: slot,
		SGEs: []rnic.SGE{{Addr: clientArena + mem.Addr((slot%window)*MaxMessage), Len: MaxMessage, LKey: c.mr.LKey()}},
	})
}

// Call performs one synchronous RPC. Calls may run concurrently on one
// client, up to the credit window.
func (c *Client) Call(method string, body []byte) ([]byte, error) {
	if len(c.freeSend) == 0 {
		return nil, fmt.Errorf("rdmarpc: credit exhausted")
	}
	c.nextID++
	id := c.nextID
	frame := encodeFrame(id, method, body)
	if len(frame) > MaxMessage {
		return nil, fmt.Errorf("rdmarpc: message exceeds %d bytes", MaxMessage)
	}
	slot := c.freeSend[len(c.freeSend)-1]
	c.freeSend = c.freeSend[:len(c.freeSend)-1]
	defer func() { c.freeSend = append(c.freeSend, slot) }()
	sendSlot := clientArena + mem.Addr(slot*MaxMessage)
	if err := c.proc.AS.Write(sendSlot, frame); err != nil {
		return nil, err
	}
	err := c.qp.PostSend(rnic.SendWR{
		WRID: id, Opcode: rnic.OpSend, Signaled: true,
		SGEs: []rnic.SGE{{Addr: sendSlot, Len: uint32(len(frame)), LKey: c.mr.LKey()}},
	})
	if err != nil {
		return nil, err
	}
	for {
		if resp, ok := c.responses[id]; ok {
			delete(c.responses, id)
			return resp, nil
		}
		if c.polling {
			c.filed.Wait()
			continue
		}
		c.polling = true
		err := c.pollResponses()
		c.polling = false
		c.filed.Broadcast()
		if err != nil {
			return nil, err
		}
	}
}

// pollResponses waits for completions and files every response among
// them. It polls into a buffer of its own: replenishing a receive passes
// the freeze gate, so the loop can park with entries still to handle.
func (c *Client) pollResponses() error {
	var cqes [16]rnic.CQE
	c.cq.WaitNonEmpty()
	for _, e := range cqes[:c.cq.PollInto(cqes[:])] {
		if e.Status != rnic.WCSuccess {
			return fmt.Errorf("rdmarpc: completion %v", e.Status)
		}
		if e.Opcode != rnic.OpRecv {
			continue // a send completion
		}
		slotAddr := clientArena + mem.Addr((e.WRID%window)*MaxMessage)
		buf := make([]byte, e.ByteLen)
		if err := c.proc.AS.Read(slotAddr, buf); err != nil {
			return err
		}
		rid, _, rbody, err := decodeFrame(buf)
		_ = c.postRecv(e.WRID + window) // replenish
		if err != nil {
			return err
		}
		c.responses[rid] = rbody
	}
	return nil
}

// Session exposes the client's MigrRDMA session.
func (c *Client) Session() *core.Session { return c.sess }

// --- wire encoding ------------------------------------------------------------

func encodeFrame(id uint64, method string, body []byte) []byte {
	out := make([]byte, 12+len(method)+len(body))
	binary.BigEndian.PutUint64(out, id)
	binary.BigEndian.PutUint32(out[8:], uint32(len(method)))
	copy(out[12:], method)
	copy(out[12+len(method):], body)
	return out
}

func decodeFrame(b []byte) (id uint64, method string, body []byte, err error) {
	if len(b) < 12 {
		return 0, "", nil, fmt.Errorf("rdmarpc: short frame")
	}
	id = binary.BigEndian.Uint64(b)
	n := binary.BigEndian.Uint32(b[8:])
	if uint32(len(b)-12) < n {
		return 0, "", nil, fmt.Errorf("rdmarpc: truncated method")
	}
	return id, string(b[12 : 12+n]), b[12+n:], nil
}
