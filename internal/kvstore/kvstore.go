// Package kvstore is a small RDMA-native key-value store built on the
// MigrRDMA guest library — the style of system the paper's introduction
// motivates (distributed storage over RDMA [5,16]): fixed-size slots in
// server-registered memory, clients reading with one-sided RDMA READ
// (zero server CPU), writing with RDMA WRITE, and taking a per-slot
// lock with ATOMIC CMP_SWAP.
//
// Both ends run on internal/core sessions, so either side can be
// live-migrated mid-workload; the store's integrity across migration is
// exercised by its tests and examples/kvstore.
package kvstore

import (
	"fmt"
	"time"

	"migrrdma/internal/codec"
	"migrrdma/internal/core"
	"migrrdma/internal/mem"
	"migrrdma/internal/oob"
	"migrrdma/internal/rnic"
	"migrrdma/internal/sim"
	"migrrdma/internal/task"
)

const (
	// SlotSize is the fixed value size; a slot additionally carries a
	// lock word and a version word.
	SlotSize   = 64
	slotStride = SlotSize + 16 // lock (8) + version (8) + value
	serverVA   = mem.Addr(0x60_0000_0000)
	clientVA   = mem.Addr(0x61_0000_0000)
)

// Server owns the slot region and accepts client connections.
type Server struct {
	Name  string
	Slots int

	Sess  *core.Session
	ready bool
	rdyC  *sim.Cond
}

// NewServer creates a server descriptor with the given slot count.
func NewServer(sched *sim.Scheduler, name string, slots int) *Server {
	return &Server{Name: name, Slots: slots, rdyC: sim.NewCond(sched, "kv-ready:"+name)}
}

// WaitReady blocks until the server accepts connections.
func (s *Server) WaitReady() {
	for !s.ready {
		s.rdyC.Wait()
	}
}

type openReq struct {
	Node string
	VQPN uint32
}

type openResp struct {
	VQPN  uint32
	RKey  uint32
	Base  uint64
	Slots int
	Err   string
}

// Run is the server process main: register the slot region, accept
// connections, then idle (one-sided ops need no server CPU).
func (s *Server) Run(p *task.Process, d *core.Daemon) {
	sess := core.NewSession(p, d)
	s.Sess = sess
	size := uint64(s.Slots * slotStride)
	if _, err := p.AS.Map(serverVA, size, "kv-slots"); err != nil {
		panic(err)
	}
	pd := sess.AllocPD()
	cq := sess.CreateCQ(1024, nil)
	mr, err := sess.RegMR(pd, serverVA, size,
		rnic.AccessLocalWrite|rnic.AccessRemoteRead|rnic.AccessRemoteWrite|rnic.AccessRemoteAtomic)
	if err != nil {
		panic(err)
	}
	ep := d.Host().Hub.Endpoint("kv:" + s.Name)
	ep.Handle("open", func(m oob.Msg) []byte {
		var req openReq
		if err := codec.Decode(m.Body, &req); err != nil {
			return codec.MustEncode(openResp{Err: err.Error()})
		}
		qp := sess.CreateQP(pd, core.QPConfig{Type: rnic.RC, SendCQ: cq, RecvCQ: cq})
		for _, a := range []rnic.ModifyAttr{
			{State: rnic.StateInit},
			{State: rnic.StateRTR, RemoteNode: req.Node, RemoteQPN: req.VQPN},
			{State: rnic.StateRTS},
		} {
			if err := qp.Modify(a); err != nil {
				return codec.MustEncode(openResp{Err: err.Error()})
			}
		}
		return codec.MustEncode(openResp{VQPN: qp.VQPN(), RKey: mr.RKey(), Base: uint64(serverVA), Slots: s.Slots})
	})
	s.ready = true
	s.rdyC.Broadcast()
	for !p.Exited() {
		p.Compute(time.Millisecond)
	}
}

// Client is one connection to a store.
type Client struct {
	sess  *core.Session
	proc  *task.Process
	qp    *core.QP
	cq    *core.CQ
	mr    *core.MR
	rkey  uint32
	base  mem.Addr
	slots int
}

// Dial connects a client running in process p to the named server.
func Dial(p *task.Process, d *core.Daemon, serverNode, serverName string) (*Client, error) {
	sess := core.NewSession(p, d)
	if _, err := p.AS.Map(clientVA, 2*slotStride+mem.PageSize, "kv-scratch"); err != nil {
		return nil, err
	}
	pd := sess.AllocPD()
	cq := sess.CreateCQ(256, nil)
	mr, err := sess.RegMR(pd, clientVA, 2*slotStride+mem.PageSize, rnic.AccessLocalWrite)
	if err != nil {
		return nil, err
	}
	qp := sess.CreateQP(pd, core.QPConfig{Type: rnic.RC, SendCQ: cq, RecvCQ: cq})
	if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateInit}); err != nil {
		return nil, err
	}
	ep := d.Host().Hub.Endpoint("kv-cli:" + p.Name)
	resp := ep.Call(serverNode, "kv:"+serverName, "open", codec.MustEncode(openReq{Node: d.Node(), VQPN: qp.VQPN()}))
	var or openResp
	if err := codec.Decode(resp, &or); err != nil {
		return nil, err
	}
	if or.Err != "" {
		return nil, fmt.Errorf("kvstore: open: %s", or.Err)
	}
	if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: serverNode, RemoteQPN: or.VQPN}); err != nil {
		return nil, err
	}
	if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateRTS}); err != nil {
		return nil, err
	}
	return &Client{
		sess: sess, proc: p, qp: qp, cq: cq, mr: mr,
		rkey: or.RKey, base: mem.Addr(or.Base), slots: or.Slots,
	}, nil
}

// slotAddr returns the remote address of slot i's field at off.
func (c *Client) slotAddr(i int, off int) mem.Addr {
	return c.base + mem.Addr(i*slotStride+off)
}

// op posts one WR and waits for its completion.
func (c *Client) op(wr rnic.SendWR) error {
	wr.Signaled = true
	if err := c.qp.PostSend(wr); err != nil {
		return err
	}
	c.cq.WaitNonEmpty()
	for _, e := range c.cq.Poll(4) {
		if e.Status != rnic.WCSuccess {
			return fmt.Errorf("kvstore: completion %v", e.Status)
		}
	}
	return nil
}

// Get reads slot i's value with a one-sided READ.
func (c *Client) Get(i int) ([]byte, error) {
	if i < 0 || i >= c.slots {
		return nil, fmt.Errorf("kvstore: slot %d out of range", i)
	}
	err := c.op(rnic.SendWR{
		WRID: 1, Opcode: rnic.OpRead,
		SGEs:       []rnic.SGE{{Addr: clientVA, Len: SlotSize, LKey: c.mr.LKey()}},
		RemoteAddr: c.slotAddr(i, 16), RKey: c.rkey,
	})
	if err != nil {
		return nil, err
	}
	out := make([]byte, SlotSize)
	if err := c.proc.AS.Read(clientVA, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Put writes slot i's value with a one-sided WRITE and bumps the
// version with a FETCH_ADD.
func (c *Client) Put(i int, val []byte) error {
	if i < 0 || i >= c.slots {
		return fmt.Errorf("kvstore: slot %d out of range", i)
	}
	if len(val) > SlotSize {
		return fmt.Errorf("kvstore: value exceeds %d bytes", SlotSize)
	}
	buf := make([]byte, SlotSize)
	copy(buf, val)
	if err := c.proc.AS.Write(clientVA+mem.Addr(slotStride), buf); err != nil {
		return err
	}
	err := c.op(rnic.SendWR{
		WRID: 2, Opcode: rnic.OpWrite,
		SGEs:       []rnic.SGE{{Addr: clientVA + mem.Addr(slotStride), Len: SlotSize, LKey: c.mr.LKey()}},
		RemoteAddr: c.slotAddr(i, 16), RKey: c.rkey,
	})
	if err != nil {
		return err
	}
	// Version bump (FETCH_ADD on the version word).
	return c.op(rnic.SendWR{
		WRID: 3, Opcode: rnic.OpFetchAdd, CompareAdd: 1,
		SGEs:       []rnic.SGE{{Addr: clientVA, Len: 8, LKey: c.mr.LKey()}},
		RemoteAddr: c.slotAddr(i, 8), RKey: c.rkey,
	})
}

// Version reads slot i's version counter.
func (c *Client) Version(i int) (uint64, error) {
	err := c.op(rnic.SendWR{
		WRID: 4, Opcode: rnic.OpRead,
		SGEs:       []rnic.SGE{{Addr: clientVA, Len: 8, LKey: c.mr.LKey()}},
		RemoteAddr: c.slotAddr(i, 8), RKey: c.rkey,
	})
	if err != nil {
		return 0, err
	}
	return c.proc.AS.ReadU64(clientVA)
}

// TryLock attempts to take slot i's lock with CMP_SWAP(0→id),
// reporting whether this client won it.
func (c *Client) TryLock(i int, id uint64) (bool, error) {
	if id == 0 {
		return false, fmt.Errorf("kvstore: lock id must be non-zero")
	}
	err := c.op(rnic.SendWR{
		WRID: 5, Opcode: rnic.OpCompSwap, CompareAdd: 0, Swap: id,
		SGEs:       []rnic.SGE{{Addr: clientVA, Len: 8, LKey: c.mr.LKey()}},
		RemoteAddr: c.slotAddr(i, 0), RKey: c.rkey,
	})
	if err != nil {
		return false, err
	}
	orig, err := c.proc.AS.ReadU64(clientVA)
	return orig == 0, err
}

// Unlock releases slot i's lock if held by id.
func (c *Client) Unlock(i int, id uint64) (bool, error) {
	err := c.op(rnic.SendWR{
		WRID: 6, Opcode: rnic.OpCompSwap, CompareAdd: id, Swap: 0,
		SGEs:       []rnic.SGE{{Addr: clientVA, Len: 8, LKey: c.mr.LKey()}},
		RemoteAddr: c.slotAddr(i, 0), RKey: c.rkey,
	})
	if err != nil {
		return false, err
	}
	orig, err := c.proc.AS.ReadU64(clientVA)
	return orig == id, err
}

// Session exposes the client's MigrRDMA session (e.g. to observe the
// node it runs on).
func (c *Client) Session() *core.Session { return c.sess }
