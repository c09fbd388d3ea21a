// Package oob provides the out-of-band control channel RDMA
// applications conventionally use to exchange connection metadata (QPNs,
// rkeys, memory addresses) before RDMA communication starts — the role
// TCP sockets play on the paper's testbed.
//
// MigrRDMA itself also relies on out-of-band messaging: the migration
// source notifies partners of the destination's address and QPN lists
// (§3.2), wait-before-stop exchanges n_sent counters (§3.4), and
// partners fetch fresh physical rkeys/QPNs after restoration (§3.3).
//
// Each node runs a Hub demultiplexing frames (fabric port "oob") to
// named endpoints. Endpoints support fire-and-forget sends, a
// non-blocking inbox for one-way messages no handler serves, and
// blocking request/response calls with registered handlers.
package oob

import (
	"encoding/binary"
	"fmt"
	"time"

	"migrrdma/internal/codec"
	"migrrdma/internal/fabric"
	"migrrdma/internal/fifo"
	"migrrdma/internal/sim"
)

// Port is the fabric mux port control traffic travels on.
const Port = "oob"

// Msg is one delivered message.
type Msg struct {
	FromNode, FromEP string
	Kind             string
	Body             []byte

	reqID   uint64
	isReply bool
	sv      *serving // the handler run serving it, if any
}

// Reply returns v's encoding (a body, as Send takes it), for a handler
// to return as its reply. For an RPC served by a handler the reply frame
// is laid out here, around that encoding, so that the reply costs one
// buffer; anything else the handler returns instead is sent as is.
func (m Msg) Reply(v any) []byte {
	if m.sv == nil || m.reqID == 0 {
		b, at := wire{}.frame(v)
		return b[at : len(b)-trailerLen]
	}
	sv := m.sv
	var at int
	sv.frame, at = sv.reply().frame(v)
	sv.body = sv.frame[at : len(sv.frame)-trailerLen]
	return sv.body
}

// Hub is the per-node demultiplexer.
type Hub struct {
	sched *sim.Scheduler
	net   *fabric.Network
	node  string
	eps   map[string]*Endpoint

	// names interns the endpoint and kind names arriving frames carry —
	// a small fixed vocabulary — so decoding allocates each name once.
	names map[string]string
	// idle holds the servings whose handler has returned, for reuse;
	// running counts those whose handler has not.
	idle    []*serving
	running int
}

// NewHub attaches a hub to the node's mux.
func NewHub(net *fabric.Network, mux *fabric.Mux, node string) *Hub {
	h := &Hub{
		sched: net.Scheduler(), net: net, node: node,
		eps: make(map[string]*Endpoint), names: make(map[string]string),
	}
	mux.Register(Port, h.onFrame)
	return h
}

// Node returns the hub's fabric node name.
func (h *Hub) Node() string { return h.node }

// Endpoint creates (or returns) the named endpoint.
func (h *Hub) Endpoint(name string) *Endpoint {
	if ep, ok := h.eps[name]; ok {
		return ep
	}
	ep := &Endpoint{
		hub:      h,
		name:     name,
		handlers: make(map[string]handler),
		pending:  make(map[uint64]*call),
	}
	h.eps[name] = ep
	return ep
}

// InFlight reports the calls the hub's endpoints still await a reply to
// and the handler runs that have not returned; both are zero once the
// node's control traffic has quiesced.
func (h *Hub) InFlight() (calls, handlers int) {
	for _, ep := range h.eps {
		calls += len(ep.pending)
	}
	return calls, h.running
}

// Close removes an endpoint; subsequent frames for it are dropped.
func (h *Hub) Close(name string) { delete(h.eps, name) }

// Handler serves a request and returns the reply body.
type Handler func(Msg) []byte

// handler is a registered Handler with the name its procs run under.
type handler struct {
	fn       Handler
	procName string
}

// Kinds is a fixed set of request kinds with the names their handler
// procs run under. An owner that serves one protocol on many endpoints
// (a daemon per host) builds it once, at package level, and registers
// it with HandleAll; it is never written afterwards.
type Kinds map[string]string

// NewKinds builds the set.
func NewKinds(kinds ...string) Kinds {
	k := make(Kinds, len(kinds))
	for _, kind := range kinds {
		k[kind] = procName(kind)
	}
	return k
}

func procName(kind string) string { return "oob-handler:" + kind }

// Endpoint is a named mailbox on a node.
type Endpoint struct {
	hub      *Hub
	name     string
	inbox    fifo.Queue[Msg] // one-way messages no handler serves
	handlers map[string]handler
	kinds    Kinds   // served by all, unless handlers has the kind
	all      Handler // see HandleAll
	pending  map[uint64]*call
	calls    fifo.FreeList[*call] // retired call records
	nextReq  uint64
}

type call struct {
	done sim.Cond
	resp []byte
	ok   bool
}

// Name returns the endpoint name.
func (ep *Endpoint) Name() string { return ep.name }

// Node returns the node the endpoint lives on.
func (ep *Endpoint) Node() string { return ep.hub.node }

// Send delivers a one-way message; it does not block. A body, here and
// in Call, is a []byte sent as is or a value codec encodes straight into
// the frame; nil is an empty body.
func (ep *Endpoint) Send(toNode, toEP, kind string, body any) {
	ep.hub.send(wire{fromEP: ep.name, toEP: toEP, kind: kind}, body, toNode)
}

// inboxCap bounds an endpoint's inbox; a message arriving at a full
// inbox is dropped.
const inboxCap = 4096

// TryRecv returns the oldest pending one-way message without blocking.
func (ep *Endpoint) TryRecv() (Msg, bool) {
	if ep.inbox.Len() == 0 {
		return Msg{}, false
	}
	return ep.inbox.Pop(), true
}

// Handle registers a request handler for kind. Handlers run in a fresh
// managed proc and may block.
func (ep *Endpoint) Handle(kind string, h Handler) {
	ep.handlers[kind] = handler{fn: h, procName: procName(kind)}
}

// HandleAll registers h for every kind of k, as Handle would one by
// one; h tells them apart by Msg.Kind. It costs the endpoint nothing per
// kind — no map entry, no proc name — which is what an endpoint made by
// the hundred needs.
func (ep *Endpoint) HandleAll(k Kinds, h Handler) { ep.kinds, ep.all = k, h }

// Call sends a request and blocks until the reply arrives.
func (ep *Endpoint) Call(toNode, toEP, kind string, body any) []byte {
	resp, _ := ep.call(toNode, toEP, kind, body, 0)
	return resp
}

// CallTimeout is Call with a deadline; ok is false when no reply
// arrived in time (e.g. the peer runs no such endpoint).
func (ep *Endpoint) CallTimeout(toNode, toEP, kind string, body any, timeout time.Duration) ([]byte, bool) {
	return ep.call(toNode, toEP, kind, body, timeout)
}

func (ep *Endpoint) call(toNode, toEP, kind string, body any, timeout time.Duration) (resp []byte, ok bool) {
	ep.nextReq++
	id := ep.nextReq
	c := ep.calls.Get(fifo.SlabMax, fifo.Objects[call])
	c.done.Init(ep.hub.sched, "oob-call")
	ep.pending[id] = c
	ep.hub.send(wire{fromEP: ep.name, toEP: toEP, kind: kind, reqID: id}, body, toNode)
	for !c.ok {
		if timeout > 0 {
			if woken := c.done.WaitTimeout(timeout); !woken && !c.ok {
				break
			}
		} else {
			c.done.Wait()
		}
	}
	delete(ep.pending, id)
	resp, ok = c.resp, c.ok
	c.resp, c.ok = nil, false
	ep.calls.Put(c)
	return resp, ok
}

// wire is a decoded control frame.
type wire struct {
	fromEP, toEP, kind string
	body               []byte
	reqID              uint64
	isReply            bool
}

// wireFixed is the frame's fixed part: four length prefixes and the
// trailer, the request ID with its reply flag.
const (
	trailerLen = 9
	wireFixed  = 4*4 + trailerLen
)

// bodyRoom is the room a frame leaves for a body codec encodes; a larger
// body grows the frame as it is written.
const bodyRoom = 64

// frame lays out the frame carrying body (see Send; w.body is not used)
// in one buffer: the names, the body with its length filled in once it
// is written, then the trailer. at is where the body starts.
func (w wire) frame(body any) (f []byte, at int) {
	room := bodyRoom
	raw, isRaw := body.([]byte)
	if isRaw || body == nil {
		room = len(raw)
	}
	f = make([]byte, 0, wireFixed+len(w.fromEP)+len(w.toEP)+len(w.kind)+room)
	f = appendField(f, w.fromEP)
	f = appendField(f, w.toEP)
	f = appendField(f, w.kind)
	f = append(f, 0, 0, 0, 0)
	at = len(f)
	if isRaw {
		f = append(f, raw...)
	} else if body != nil {
		var err error
		if f, err = codec.Append(f, body); err != nil {
			panic(fmt.Sprintf("oob: %s body: %v", w.kind, err))
		}
	}
	binary.BigEndian.PutUint32(f[at-4:], uint32(len(f)-at))
	f = binary.BigEndian.AppendUint64(f, w.reqID)
	if w.isReply {
		return append(f, 1), at
	}
	return append(f, 0), at
}

// appendField appends one length-prefixed field.
func appendField[T string | []byte](out []byte, f T) []byte {
	out = binary.BigEndian.AppendUint32(out, uint32(len(f)))
	return append(out, f...)
}

// takeField cuts the next length-prefixed field off b.
func takeField(b []byte) (field, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("oob: truncated frame")
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint32(len(b)) < n {
		return nil, nil, fmt.Errorf("oob: truncated field")
	}
	return b[:n], b[n:], nil
}

// decodeWire decodes a frame. The names come out of the hub's intern
// table and the body aliases b, so a frame of known names decodes
// without allocating.
func (h *Hub) decodeWire(b []byte) (w wire, err error) {
	var from, to, kind []byte
	if from, b, err = takeField(b); err != nil {
		return w, err
	}
	if to, b, err = takeField(b); err != nil {
		return w, err
	}
	if kind, b, err = takeField(b); err != nil {
		return w, err
	}
	if w.body, b, err = takeField(b); err != nil {
		return w, err
	}
	if len(b) != trailerLen || b[8] > 1 {
		return w, fmt.Errorf("oob: bad trailer")
	}
	w.fromEP, w.toEP, w.kind = h.name(from), h.name(to), h.name(kind)
	w.reqID = binary.BigEndian.Uint64(b)
	w.isReply = b[8] == 1
	return w, nil
}

// name returns the interned string for b.
func (h *Hub) name(b []byte) string {
	if s, ok := h.names[string(b)]; ok { // no conversion is made for a map probe
		return s
	}
	s := string(b)
	h.names[s] = s
	return s
}

// controlOverhead approximates TCP/IP framing for a control message.
const controlOverhead = 66

func (h *Hub) send(w wire, body any, toNode string) {
	data, _ := w.frame(body)
	h.sendFrame(data, toNode)
}

func (h *Hub) sendFrame(data []byte, toNode string) {
	h.net.Send(fabric.Frame{
		Src: h.node, Dst: toNode, Port: Port,
		Size: controlOverhead + len(data),
		Data: data,
	})
}

// onFrame dispatches an arriving control frame (inline, non-blocking).
func (h *Hub) onFrame(f fabric.Frame) {
	w, err := h.decodeWire(f.Data)
	if err != nil {
		return
	}
	ep, ok := h.eps[w.toEP]
	if !ok {
		return
	}
	if w.isReply {
		if c, ok := ep.pending[w.reqID]; ok {
			c.resp, c.ok = w.body, true
			c.done.Broadcast()
		}
		return
	}
	msg := Msg{FromNode: f.Src, FromEP: w.fromEP, Kind: w.kind, Body: w.body, reqID: w.reqID}
	hd, ok := ep.handlers[w.kind]
	if !ok {
		hd.procName, ok = ep.kinds[w.kind]
		hd.fn = ep.all
	}
	if ok {
		// Handlers serve both RPCs and one-way messages; they run in
		// their own proc so they may block.
		sv := h.takeServing()
		msg.sv = sv
		sv.ep, sv.fn, sv.msg = ep, hd.fn, msg
		h.running++
		h.sched.Go(hd.procName, sv.run)
		return
	}
	if w.reqID != 0 {
		return // RPC for an unhandled kind: drop; the caller times out
	}
	if ep.inbox.Len() < inboxCap {
		ep.inbox.Push(msg)
	}
}

// serving is one run of a handler: what its proc needs, kept in a
// struct the hub reuses so that a request costs no closure. frame is the
// reply Msg.Reply laid out, and body its body, as the handler got it.
type serving struct {
	hub   *Hub
	ep    *Endpoint
	fn    Handler
	msg   Msg
	frame []byte
	body  []byte
	run   func() // sv.serve, bound once
}

func (h *Hub) takeServing() *serving {
	if n := len(h.idle); n > 0 {
		sv := h.idle[n-1]
		h.idle[n-1] = nil
		h.idle = h.idle[:n-1]
		return sv
	}
	sv := &serving{hub: h}
	sv.run = sv.serve
	return sv
}

// reply addresses the reply to the message being served.
func (sv *serving) reply() wire {
	m := &sv.msg
	return wire{fromEP: sv.ep.name, toEP: m.FromEP, kind: m.Kind, reqID: m.reqID, isReply: true}
}

// serve is the handler proc's body. Only RPCs get a reply.
func (sv *serving) serve() {
	msg := sv.msg
	resp := sv.fn(msg)
	if msg.reqID != 0 {
		if sv.frame == nil || len(resp) != len(sv.body) || len(resp) > 0 && &resp[0] != &sv.body[0] {
			sv.frame, _ = sv.reply().frame(resp)
		}
		sv.hub.sendFrame(sv.frame, msg.FromNode)
	}
	sv.ep, sv.fn, sv.msg, sv.frame, sv.body = nil, nil, Msg{}, nil, nil
	sv.hub.idle = append(sv.hub.idle, sv)
	sv.hub.running--
}
