// Package fabric models the data-center network the MigrRDMA testbed
// runs on: hosts attached to a single switch through full-duplex links
// with the rate and propagation delay of the paper's testbed (100 Gbps
// ConnectX-5 NICs behind an Arista 7260CX3-64 switch).
//
// The fabric is rate-accurate: a frame of S bytes occupies its egress
// link for S*8/rate of virtual time, so end-to-end throughput, queueing
// and the wait-before-stop theory value inflight_bytes/link_rate (paper
// §5.4) all emerge from the model rather than being asserted.
package fabric

import (
	"fmt"
	"slices"
	"time"

	"migrrdma/internal/fifo"
	"migrrdma/internal/metrics"
	"migrrdma/internal/sim"
)

// Frame is one unit of transmission. Size is the on-wire size in bytes
// (payload plus protocol overhead); Data is the encoded packet. Port
// selects the consumer on the destination node when a Mux is installed
// (RDMA traffic, migration image streams, out-of-band control).
type Frame struct {
	Src, Dst string
	Port     string
	Size     int
	Data     []byte
}

// Handler consumes frames delivered to a node. Handlers run inline on
// the scheduler loop and must not block; typical handlers enqueue the
// frame and signal a condition variable.
type Handler func(Frame)

// The links of the paper's testbed (§5.1). A port can run slower
// (SetRate), and a two-tier topology can give its spine links their own
// rate and delay (Topology).
const (
	// LinkRate is the host link rate in bits per second.
	LinkRate int64 = 100e9
	// propDelay is the one-way propagation delay per hop.
	propDelay = time.Microsecond
)

// Config describes the network's shape and where it reports.
type Config struct {
	// Topology declares the two-tier rack/spine fabric (topology.go).
	// The zero value is the classic flat single-switch network.
	Topology Topology
	// Metrics, when set, receives the per-port counters. A nil registry
	// gets replaced by a detached one so increments are always valid.
	Metrics *metrics.Registry
}

// Network is the fabric connecting named nodes: one switch, or the
// two-tier rack/spine topology of topology.go.
type Network struct {
	sched *sim.Scheduler
	cfg   Config
	reg   *metrics.Registry
	ports map[string]*port

	// racks holds the per-rack spine links of a two-tier topology; nil
	// on a flat network, so the classic Send path never consults it.
	racks []*rackLink

	// deliveries recycles the per-frame delivery events armed by
	// deliverAt, so the steady-state data path allocates no event state
	// per packet.
	deliveries fifo.FreeList[*delivery]

	// bufs is the network-wide wire-buffer pool. It lives on the
	// Network rather than on each NIC because buffers flow between
	// hosts: the sender allocates a frame's buffer and the receiver
	// retires it, so per-NIC pools drain on any host that transmits
	// more frames than it receives (a one-way bulk sender never gets
	// its buffers back, and its receiver's pool grows without bound).
	// Everything on one Network runs on one scheduler, so the shared
	// list needs no locking.
	bufs fifo.FreeList[[]byte]
}

const (
	// maxPooledBufs bounds the buffer pool; beyond it, retired buffers
	// are left to the garbage collector.
	maxPooledBufs = 4096
	// bufSlabMax caps a refill of the buffer pool, a max-size frame a
	// buffer; the delivery pool's cap is fifo.SlabMax. Wire-buffer peaks
	// run to a few hundred (276 on a 16-QP bandwidth run, 364 with 2,000
	// tenant sessions), where fifo.SlabMax would leave up to 63 buffers
	// (262 KB) of slack past the peak and this cap leaves at most 16. A
	// slab cuts as many buffers as its rounded-up allocation holds: 17
	// max-size ones in a full slab.
	bufSlabMax = 16
)

// TakeBuf returns a buffer of length size and capacity ≥ size: a retired
// one, or one cut from a fresh slab of buffers of capacity c (at least
// size). Callers hand it to Send as Frame.Data; the receiver retires it
// with PutBuf once the frame is fully consumed.
func (n *Network) TakeBuf(size, c int) []byte {
	c = max(c, size)
	for {
		b := n.bufs.Get(bufSlabMax, func(free [][]byte, k int) [][]byte {
			// Each buffer's capacity ends where its neighbour starts, so
			// an append past it reallocates instead of writing into the
			// next buffer. slices.Grow rounds the capacity up to what the
			// allocator hands out anyway; the room it adds holds more.
			s := slices.Grow([]byte(nil), k*c)
			s = s[:cap(s)]
			for i := range cap(s) / c {
				free = append(free, s[i*c:i*c:(i+1)*c])
			}
			return free
		})
		if cap(b) >= size {
			return b[:size]
		}
		// Undersized for this caller (mixed-MTU networks): drop it and
		// keep looking rather than returning a short buffer.
	}
}

// PutBuf retires a frame buffer into the shared pool. The caller must
// hold the only live reference.
func (n *Network) PutBuf(b []byte) {
	if cap(b) == 0 || n.bufs.Len() >= maxPooledBufs {
		return
	}
	n.bufs.Put(b[:0])
}

type port struct {
	name    string
	handler Handler
	// upBusy / downBusy are the times the node→switch and switch→node
	// links finish serializing their last frame.
	upBusy, downBusy time.Duration
	// lossProb drops incoming frames with the given probability;
	// lossPort restricts the drops to one port ("" = every port).
	lossProb float64
	lossPort string
	// partitioned drops every frame to and from the node.
	partitioned bool
	// dupProb delivers incoming frames twice with the given probability;
	// dupPort restricts duplication to one port ("" = every port).
	dupProb float64
	dupPort string
	// reorderProb holds back an incoming frame for reorderDelay so that
	// later frames overtake it; reorderPort restricts it to one port.
	reorderProb  float64
	reorderPort  string
	reorderDelay time.Duration
	// rate overrides LinkRate for this port (0 = LinkRate),
	// modelling a degraded or renegotiated link.
	rate int64
	// rack is the port's ToR assignment under a two-tier topology
	// (topology.go); always 0 on a flat network.
	rack int
	// plug, when installed, queues matching frames instead of delivering
	// them (plug-and-forward cutover; see plug.go).
	plug *plug
	// arrivals carries the frames the downlink delivers, in arrival order:
	// an arrival is downBusy plus the propagation delay, and downBusy only
	// grows. A frame held back by reorderDelay takes a timer of its own.
	arrivals sim.Lane

	// Registry handles, resolved once at Attach (hot-path increments
	// are single atomic adds). They are the port's only counts: a test
	// reads them off the registry.
	mTxBytes, mRxBytes   metrics.Counter
	mTxFrames, mRxFrames metrics.Counter
	mDelivered, mDropped metrics.Counter
	mDup, mReord         metrics.Counter
	// mBacklog tracks the downlink serialization backlog (how far ahead
	// of now the link is booked, in nanoseconds); its high-water mark is
	// the queue-depth figure of merit.
	mBacklog metrics.Gauge
}

// New creates an empty network.
func New(sched *sim.Scheduler, cfg Config) *Network {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New(sched.Now)
	}
	n := &Network{sched: sched, cfg: cfg, reg: reg, ports: make(map[string]*port)}
	if !cfg.Topology.Flat() {
		n.initTopology()
	}
	return n
}

// Scheduler returns the scheduler the network runs on.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// Attach connects a node to the switch. The handler receives every frame
// addressed to name.
func (n *Network) Attach(name string, h Handler) {
	if _, dup := n.ports[name]; dup {
		panic("fabric: duplicate node " + name)
	}
	b := n.reg.Block("fabric", metrics.L("node", name), 9)
	p := &port{
		name: name, handler: h,
		mTxBytes:   b.Counter("tx_bytes"),
		mRxBytes:   b.Counter("rx_bytes"),
		mTxFrames:  b.Counter("tx_frames"),
		mRxFrames:  b.Counter("rx_frames"),
		mDelivered: b.Counter("delivered_frames"),
		mDropped:   b.Counter("dropped_frames"),
		mDup:       b.Counter("duplicated_frames"),
		mReord:     b.Counter("reordered_frames"),
		mBacklog:   b.Gauge("downlink_backlog_ns"),
	}
	p.arrivals.Init(n.sched, deliverCB)
	n.ports[name] = p
}

// SetHandler replaces the frame handler of an attached node. It is used
// when a NIC object is rebuilt (e.g. in tests).
func (n *Network) SetHandler(name string, h Handler) {
	n.mustPort(name).handler = h
}

// SetLoss sets the probability that a frame leaving or entering the node
// is dropped. Loss draws use the scheduler's deterministic RNG.
func (n *Network) SetLoss(name string, p float64) {
	pt := n.mustPort(name)
	pt.lossProb, pt.lossPort = p, ""
}

// SetPortLoss drops only frames on the given mux port (e.g. the RDMA
// data path while the TCP-like control and transfer paths stay
// reliable, as on a real deployment).
func (n *Network) SetPortLoss(name, port string, p float64) {
	pt := n.mustPort(name)
	pt.lossProb, pt.lossPort = p, port
}

// SetDuplicate sets the probability that a frame entering the node is
// delivered twice, modelling a switch retransmitting onto the downlink.
// The copy re-serializes on the downlink so it arrives strictly after
// the original. Draws use the scheduler's deterministic RNG.
func (n *Network) SetDuplicate(name string, p float64) {
	pt := n.mustPort(name)
	pt.dupProb, pt.dupPort = p, ""
}

// SetPortDuplicate restricts duplication to one mux port.
func (n *Network) SetPortDuplicate(name, port string, p float64) {
	pt := n.mustPort(name)
	pt.dupProb, pt.dupPort = p, port
}

// SetReorder sets the probability that a frame entering the node is held
// back for delay, letting frames behind it overtake (out-of-order
// delivery as produced by multi-path fabrics). Draws use the scheduler's
// deterministic RNG.
func (n *Network) SetReorder(name string, p float64, delay time.Duration) {
	pt := n.mustPort(name)
	pt.reorderProb, pt.reorderPort, pt.reorderDelay = p, "", delay
}

// SetPortReorder restricts reordering to one mux port.
func (n *Network) SetPortReorder(name, port string, p float64, delay time.Duration) {
	pt := n.mustPort(name)
	pt.reorderProb, pt.reorderPort, pt.reorderDelay = p, port, delay
}

// SetRate overrides the link rate of one node in bits per second,
// modelling a renegotiated or degraded link. Zero restores LinkRate.
// Frames already serialized keep their old timing.
func (n *Network) SetRate(name string, bps int64) { n.mustPort(name).rate = bps }

// SetPartitioned isolates or reconnects a node.
func (n *Network) SetPartitioned(name string, v bool) { n.mustPort(name).partitioned = v }

func (n *Network) mustPort(name string) *port {
	p, ok := n.ports[name]
	if !ok {
		panic("fabric: unknown node " + name)
	}
	return p
}

// SerializationTime returns the time a frame of size bytes occupies a
// link. NIC transmit pacers use it to hand the fabric one frame per
// serialization slot.
func (n *Network) SerializationTime(size int) time.Duration {
	return n.serialization(size)
}

// serialization returns the time a frame of size bytes occupies a link.
func (n *Network) serialization(size int) time.Duration {
	return time.Duration(int64(size) * 8 * int64(time.Second) / LinkRate)
}

// serializationAt is serialization against one port's effective rate.
func (n *Network) serializationAt(p *port, size int) time.Duration {
	rate := LinkRate
	if p.rate > 0 {
		rate = p.rate
	}
	return time.Duration(int64(size) * 8 * int64(time.Second) / rate)
}

// Send injects a frame at its source node. Delivery is scheduled through
// the switch: the frame serializes onto the source uplink, propagates,
// store-and-forwards through the switch onto the destination downlink,
// and is handed to the destination handler. Send never blocks; queueing
// appears as later delivery times.
//
// Fault ordering: the duplication decision is made first (the switch
// retransmitting onto the downlink produces two physical copies), then
// loss and reordering are drawn independently per copy — a duplicated
// frame may lose its original and still deliver the copy, and vice
// versa. Each copy occupies its own downlink serialization slot whether
// or not it is subsequently dropped.
func (n *Network) Send(f Frame) {
	src := n.mustPort(f.Src)
	dst := n.mustPort(f.Dst)
	if src.partitioned || dst.partitioned {
		dst.mDropped.Inc()
		return
	}
	if src.lossProb > 0 && (src.lossPort == "" || src.lossPort == f.Port) &&
		n.sched.Rand().Float64() < src.lossProb {
		dst.mDropped.Inc()
		return
	}
	arriveSwitch := n.serializeUplink(src, f.Size) + propDelay
	if n.racks != nil && src.rack != dst.rack {
		// Two-tier crossing: ToR→spine on the source rack's uplink,
		// spine→ToR on the destination rack's downlink (topology.go).
		atSpine, ok := n.bookSpineUp(src.rack, f, arriveSwitch)
		if !ok {
			dst.mDropped.Inc()
			return
		}
		atDstToR, ok := n.bookSpineDown(dst.rack, f, atSpine)
		if !ok {
			dst.mDropped.Inc()
			return
		}
		arriveSwitch = atDstToR
	}
	n.deliverDownlink(dst, f, arriveSwitch)
}

// serializeUplink books the frame onto the source uplink (source NIC →
// switch) and returns the time the last bit leaves the NIC.
func (n *Network) serializeUplink(src *port, size int) time.Duration {
	start := n.sched.Now()
	if src.upBusy > start {
		start = src.upBusy
	}
	src.upBusy = start + n.serializationAt(src, size)
	src.mTxBytes.Add(int64(size))
	src.mTxFrames.Inc()
	return src.upBusy
}

// deliverDownlink carries a frame that reaches the switch at
// arriveSwitch onto the destination downlink: the switch-side
// duplication draw, per-copy store-and-forward serialization, and the
// per-copy loss/reorder draws. It is the destination half of Send.
func (n *Network) deliverDownlink(dst *port, f Frame, arriveSwitch time.Duration) {
	now := n.sched.Now()
	// Switch-side duplication: the copy re-serializes on the downlink
	// behind the original, so it always trails it.
	copies := 1
	if dst.dupProb > 0 && (dst.dupPort == "" || dst.dupPort == f.Port) &&
		n.sched.Rand().Float64() < dst.dupProb {
		copies = 2
		dst.mDup.Inc()
	}
	// Downlink: switch → destination NIC (store-and-forward), one
	// serialization slot per copy, with independent loss/reorder draws.
	serDown := n.serializationAt(dst, f.Size)
	for c := 0; c < copies; c++ {
		egress := arriveSwitch
		if dst.downBusy > egress {
			egress = dst.downBusy
		}
		dst.downBusy = egress + serDown
		arrive := dst.downBusy + propDelay
		if dst.lossProb > 0 && (dst.lossPort == "" || dst.lossPort == f.Port) &&
			n.sched.Rand().Float64() < dst.lossProb {
			dst.mDropped.Inc()
			continue
		}
		reordered := false
		if dst.reorderProb > 0 && (dst.reorderPort == "" || dst.reorderPort == f.Port) &&
			n.sched.Rand().Float64() < dst.reorderProb {
			dst.mReord.Inc()
			arrive += dst.reorderDelay
			reordered = true
		}
		if c > 0 && f.Data != nil {
			// The switch retransmit is a second physical copy on the
			// wire; give it its own bytes so a receiver that recycles
			// frame buffers after consuming the first copy cannot
			// corrupt this one.
			f.Data = append([]byte(nil), f.Data...)
		}
		n.deliverAt(dst, f, reordered, arrive-now)
	}
	// downBusy only grows across the copies, so recording the backlog
	// once after the loop observes the same final value and high-water
	// mark as a per-copy set would.
	dst.mBacklog.Set(int64(dst.downBusy - now))
}

// delivery is the pending arrival of one frame at one port. Instances
// are pooled on the Network and ride the port's arrivals lane, which
// fires the shared deliverCB callback, so scheduling a delivery allocates
// neither a closure nor an event struct nor a timer in steady state.
type delivery struct {
	n   *Network
	dst *port
	f   Frame
	lt  sim.LaneTimer
}

// deliverCB is the one callback every delivery event shares; the
// per-event state rides in the argument.
var deliverCB = func(arg any) { arg.(*delivery).run() }

// deliverAt schedules one delivery of f to dst after d: on dst's arrivals
// lane, or on a timer of its own for a frame held back by reorderDelay,
// which overtakes the lane's order.
func (n *Network) deliverAt(dst *port, f Frame, reordered bool, d time.Duration) {
	dv := n.deliveries.Get(fifo.SlabMax, fifo.Objects[delivery])
	dv.n = n
	dv.dst = dst
	dv.f = f
	if reordered {
		n.sched.AfterFuncArg(d, deliverCB, dv)
		return
	}
	dst.arrivals.Arm(&dv.lt, d, dv)
}

// run hands the frame to the destination handler. The event struct is
// recycled before the handler runs: handlers may send (and schedule new
// deliveries) inline.
func (dv *delivery) run() {
	n, dst, f := dv.n, dv.dst, dv.f
	dv.dst = nil
	dv.f = Frame{}
	n.deliveries.Put(dv)
	dst.mRxBytes.Add(int64(f.Size))
	dst.mRxFrames.Inc()
	// A plugged frame has arrived at the NIC (rx accounting above) but
	// is not delivered until FlushPlug hands it to the port handler.
	if pl := dst.plug; pl != nil && pl.match(f) {
		pl.enqueue(n, dst, f)
		return
	}
	dst.deliver(f)
}

// deliver counts a frame as delivered and hands it to the port handler.
func (p *port) deliver(f Frame) {
	p.mDelivered.Inc()
	if p.handler == nil {
		panic(fmt.Sprintf("fabric: node %s has no handler", f.Dst))
	}
	p.handler(f)
}
