package rnic

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"migrrdma/internal/fabric"
	"migrrdma/internal/fifo"
	"migrrdma/internal/mem"
	"migrrdma/internal/metrics"
	"migrrdma/internal/sim"
)

// Config sets device parameters. Zero fields take defaults that mirror a
// ConnectX-5-class NIC on the paper's testbed; the rest of that NIC's
// calibration is the constants below, which no deployment varies.
type Config struct {
	MTU        int // max payload bytes per frame
	MaxRetries int // transport retries before WCRetryExceeded
	// RNRRetries bounds receiver-not-ready retries; 0 means infinite
	// (the rnr_retry=7 encoding of the verbs spec, and the default of
	// most datacenter deployments).
	RNRRetries int

	// Metrics, when set, receives the device/QP/CQ counters (the
	// ethtool-style telemetry the evaluation samples). A nil registry is
	// replaced by a detached one so increments are always valid.
	Metrics *metrics.Registry
}

// UnlimitedRetries as MaxRetries retries forever: a QP survives a
// blackhole of any length instead of flushing with WCRetryExceeded
// (the rnr_retry=7 semantics go-back-N's cutover recovery relies on).
const UnlimitedRetries = math.MaxInt

// DefaultConfig returns the testbed-calibrated configuration.
func DefaultConfig() Config {
	return Config{MTU: 4096, MaxRetries: 7}
}

// The transport timers and the on-chip memory pool.
const (
	rto      = 500 * time.Microsecond // retransmission timeout
	rnrDelay = 100 * time.Microsecond // requester back-off after an RNR NAK
	dmSize   = 256 << 10              // on-chip device memory pool (bytes)
)

// Control-path command latencies (driver + firmware round trips). Their
// sum along create→INIT→RTR→RTS is 0.9 ms per QP (the paper cites
// "several milliseconds" to set up a connection, [53] via §2.2); over a
// process's QPs it is what makes RestoreRDMA dominate the no-presetup
// blackout in Fig. 3.
const (
	createQPLat   = 150 * time.Microsecond
	modifyInitLat = 100 * time.Microsecond
	modifyRTRLat  = 400 * time.Microsecond
	modifyRTSLat  = 250 * time.Microsecond
	resetQPLat    = 900 * time.Microsecond

	createCQLat = 80 * time.Microsecond
	regMRLat    = 30 * time.Microsecond // base cost
	regMRPerMB  = 12 * time.Microsecond // page pinning cost per MiB
	destroyLat  = 20 * time.Microsecond // destroy/dealloc commands
)

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MTU == 0 {
		c.MTU = d.MTU
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = d.MaxRetries
	}
	return c
}

// Device is one simulated RNIC attached to a fabric node.
type Device struct {
	sched *sim.Scheduler
	net   *fabric.Network
	node  string
	cfg   Config

	pds    map[uint32]*PD
	mrs    map[uint32]*MR // by lkey
	rmrs   map[uint32]*MR // by rkey
	mws    map[uint32]*MW // by rkey
	cqs    map[uint32]*CQ
	qps    map[uint32]*QP
	srqs   map[uint32]*SRQ
	dmUsed int

	// Sparse allocators: physical identifiers on real NICs are neither
	// dense nor predictable, which is exactly why MigrRDMA introduces
	// virtual dense keys (§3.3). The strides keep that property visible.
	nextQPN uint32
	nextKey uint32
	nextID  uint32

	// rxq holds received packets for the engine: a run-to-completion task
	// that onFrame wakes and that drains the queue on the scheduler loop.
	rxq    fifo.Queue[rxItem]
	engine *sim.Task

	// rtoLane carries the retransmission timers of every QP on the
	// device (QP.armRTO).
	rtoLane sim.Lane

	// TX pacer: frames are pulled (control first, then responder data,
	// then requester data in QP round-robin) one per serialization slot
	// of the pacer's own, so deep send queues drain at line rate instead
	// of flooding the fabric. The pacer clocks only its own frames: bytes
	// the host books on the same uplink outside the NIC (the migration
	// image's xfer stream, oob control messages) do not slow it, so while
	// they flow the uplink's queue grows behind them and RDMA frames and
	// those messages wait in it (EXPERIMENTS.md "Known deltas" 5).
	ctlq   fifo.Queue[fabric.Frame]
	respq  fifo.Queue[fabric.Frame]
	txRing fifo.Queue[*QP]
	txBusy bool
	pumpCb func() // the serialization-slot callback, bound once

	closed bool

	// Hot-path recycling: packet structs and wire buffers are pooled so
	// the steady-state data path allocates nothing per frame. Buffers
	// hold one max-size frame (header + MTU); a received buffer is
	// recycled after its packet is fully handled (handlers copy payload
	// bytes out before returning).
	pkts   fifo.FreeList[*packet]
	wqes   fifo.FreeList[*sqEntry]
	bufCap int

	// Bounded direct-mapped lookup caches for the per-packet map lookups
	// (QPN→QP, lkey→MR, rkey→MR). A slot index plus a key compare
	// replaces a map hash on the common repeated-flow case, and — unlike
	// the single-entry predecessors — the caches survive many flows
	// interleaving on one device (the shared-QP tenancy fan-out).
	// Identifiers come from sparse odd-stride allocators, so the low
	// bits distribute well across slots. Destroy/dereg invalidates the
	// victim's slot directly; a slot is only cleared when it still holds
	// the destroyed object, so an unrelated resident is never evicted.
	qpCache   [lookupCacheSlots]*QP
	lkeyCache [lookupCacheSlots]*MR
	rkeyCache [lookupCacheSlots]*MR

	// fwdQPNs/fwdFn implement the source-side forwarding rule of the
	// plug-and-forward cutover: frames addressed to a listed (suspended)
	// QPN are handed to fwdFn — the tunnel toward the destination's plug
	// buffer — instead of the local transport, so the blackout window
	// produces no NAKs or go-back-N from the half-dead source QPs.
	fwdQPNs map[uint32]bool
	fwdFn   func(fabric.Frame)
	mFwd    metrics.Counter

	// reg is the metrics registry, and the stream the device emits its
	// cqe, ack, exp, dereg and rkey events into; mTx/mRx count data-path
	// wire bytes (the mlx5 ethtool counters used for Fig. 5's throughput
	// sampling). Consumers read them through the registry, never device
	// fields.
	reg                  *metrics.Registry
	mTx, mRx             metrics.Counter
	mTxFrames, mRxFrames metrics.Counter
	// mDup counts redundant inbound frames (switch duplicates, a
	// retransmission racing its ack) — the RX-side half of the split
	// from genuine go-back-N retransmissions, which the per-QP
	// retx_packets counts on the TX side.
	mDup metrics.Counter
}

// emitPSN emits an ack event (the requester marked a send-queue entry
// acknowledged: entries never leave that state, so each PSN is emitted
// at most once per QP incarnation and in PSN order — the monotonicity
// go-back-N must preserve) or an exp event (the responder advanced its
// expected PSN).
func (d *Device) emitPSN(kind string, qpn, psn uint32) {
	d.reg.Emit(metrics.Event{Kind: kind, Node: d.node, QPN: qpn, PSN: psn})
}

// NewDevice creates an RNIC on the given fabric node and registers its
// receive path on mux port "rdma".
func NewDevice(net *fabric.Network, mux *fabric.Mux, node string, cfg Config) *Device {
	d := &Device{
		sched:   net.Scheduler(),
		net:     net,
		node:    node,
		cfg:     cfg.withDefaults(),
		pds:     make(map[uint32]*PD),
		mrs:     make(map[uint32]*MR),
		rmrs:    make(map[uint32]*MR),
		mws:     make(map[uint32]*MW),
		cqs:     make(map[uint32]*CQ),
		qps:     make(map[uint32]*QP),
		srqs:    make(map[uint32]*SRQ),
		nextQPN: 0x000100,
		nextKey: 0x2000,
		nextID:  1,
	}
	d.reg = d.cfg.Metrics
	if d.reg == nil {
		d.reg = metrics.New(d.sched.Now)
	}
	b := d.reg.Block("rnic", metrics.L("node", node), 5)
	d.mTx = b.Counter("tx_bytes")
	d.mRx = b.Counter("rx_bytes")
	d.mTxFrames = b.Counter("tx_frames")
	d.mRxFrames = b.Counter("rx_frames")
	d.mDup = b.Counter("duplicated_packets")
	d.bufCap = packetHeaderLen + d.cfg.MTU
	d.pumpCb = func() {
		d.txBusy = false
		d.pump()
	}
	mux.Register(PortRDMA, d.onFrame)
	d.engine = d.sched.NewTask("rnic-engine@"+node, d.runEngine)
	d.rtoLane.Init(d.sched, fireRTO)
	return d
}

// --- Hot-path pools and caches --------------------------------------------

// getPkt takes a zeroed packet from the pool, which refills a slab at a
// time (fifo.FreeList).
func (d *Device) getPkt() *packet { return d.pkts.Get(fifo.SlabMax, fifo.Objects[packet]) }

// putPkt recycles a packet the device is done with.
func (d *Device) putPkt(p *packet) {
	*p = packet{}
	d.pkts.Put(p)
}

// getWQE takes a zeroed send-queue entry from the pool.
func (d *Device) getWQE() *sqEntry { return d.wqes.Get(fifo.SlabMax, fifo.Objects[sqEntry]) }

// putWQE recycles a retired send-queue entry that no queue references.
func (d *Device) putWQE(e *sqEntry) {
	*e = sqEntry{}
	d.wqes.Put(e)
}

// getBuf returns an n-byte wire buffer, pooled when n fits a max-size
// frame. The pool is the network-wide one: a buffer is allocated by the
// sending NIC and retired by the receiving NIC, so a per-device pool
// would drain on any host that transmits more frames than it receives.
func (d *Device) getBuf(n int) []byte {
	if n <= d.bufCap {
		return d.net.TakeBuf(n, d.bufCap)
	}
	return make([]byte, n)
}

// putBuf retires a wire buffer if it has this device's full frame
// capacity (buffers arriving from a peer device with the same MTU
// qualify; odd-size test frames fall back to the GC).
func (d *Device) putBuf(b []byte) {
	if cap(b) >= d.bufCap {
		d.net.PutBuf(b)
	}
}

// lookupCacheSlots sizes the direct-mapped lookup caches. Eight slots
// keep a handful of concurrently hot flows resident (the multi-tenant
// shared-QP case) while the whole cache is still two cache lines.
const lookupCacheSlots = 8

// cacheSlot maps an identifier onto its direct-mapped slot.
func cacheSlot(id uint32) uint32 { return id & (lookupCacheSlots - 1) }

// lookupQP resolves a QPN, serving repeated lookups of hot flows from
// the direct-mapped cache.
func (d *Device) lookupQP(qpn uint32) (*QP, bool) {
	slot := &d.qpCache[cacheSlot(qpn)]
	if qp := *slot; qp != nil && qp.QPN == qpn {
		return qp, true
	}
	qp, ok := d.qps[qpn]
	if ok {
		*slot = qp
	}
	return qp, ok
}

// mrByLKey resolves an lkey, serving repeated lookups of hot regions
// from the direct-mapped cache.
func (d *Device) mrByLKey(lkey uint32) (*MR, bool) {
	slot := &d.lkeyCache[cacheSlot(lkey)]
	if mr := *slot; mr != nil && mr.LKey == lkey {
		return mr, true
	}
	mr, ok := d.mrs[lkey]
	if ok {
		*slot = mr
	}
	return mr, ok
}

// PortRDMA is the fabric mux port RDMA traffic travels on.
const PortRDMA = "rdma"

// Node returns the fabric node name the device is attached to.
func (d *Device) Node() string { return d.node }

// MTU returns the configured maximum payload per frame.
func (d *Device) MTU() int { return d.cfg.MTU }

// Scheduler returns the scheduler the device runs on.
func (d *Device) Scheduler() *sim.Scheduler { return d.sched }

// Metrics returns the registry the device reports into. Consumers (the
// trace sampler, the chaos harness) resolve counter handles from it
// instead of reading device fields.
func (d *Device) Metrics() *metrics.Registry { return d.reg }

// qpLabels renders the per-QP metric labels; the QPN reads as fmt's
// %#06x prints it: "0x" and at least six hex digits.
func (d *Device) qpLabels(qpn uint32) metrics.Labels {
	var digits [8]byte
	hex := strconv.AppendUint(digits[:0], uint64(qpn), 16)
	var buf [10]byte
	b := append(buf[:0], "0x"...)
	for n := len(hex); n < 6; n++ {
		b = append(b, '0')
	}
	b = append(b, hex...)
	return metrics.L("node", d.node, "qpn", string(b))
}

// allocQPN returns a fresh sparse 24-bit QP number.
func (d *Device) allocQPN() uint32 {
	q := d.nextQPN
	d.nextQPN = (d.nextQPN + 0x1B) & 0xFFFFFF // sparse stride
	return q
}

// allocKey returns a fresh sparse protection key.
func (d *Device) allocKey() uint32 {
	k := d.nextKey
	d.nextKey += 0x107
	return k
}

func (d *Device) allocID() uint32 {
	id := d.nextID
	d.nextID++
	return id
}

// QPCount reports the number of live QPs on the device. Teardown leak
// checks (session close mid-migration, chaos invariants) assert it
// returns to the expected floor.
func (d *Device) QPCount() int { return len(d.qps) }

// SetForward installs (or, with nil maps, removes) the source-side
// forwarding rule: frames addressed to a listed QPN bypass the local
// transport and are handed to fn, which tunnels them to the
// destination's plug buffer. fn must copy any bytes it keeps — the
// frame buffer is recycled when fn returns. The rule also acts as a
// divergence guard: once the final dump is taken, the dumped QP state
// can no longer be mutated by late arrivals.
func (d *Device) SetForward(qpns map[uint32]bool, fn func(fabric.Frame)) {
	if qpns == nil || fn == nil {
		d.fwdQPNs, d.fwdFn = nil, nil
		return
	}
	if d.mFwd == (metrics.Counter{}) {
		// Registered on first use: the metric only exists in
		// plug-and-forward runs, keeping go-back-N snapshot hashes intact.
		d.mFwd = d.reg.Counter("rnic", "forwarded_packets", metrics.L("node", d.node))
	}
	d.fwdQPNs, d.fwdFn = qpns, fn
}

// onFrame is the fabric receive handler (inline, non-blocking).
func (d *Device) onFrame(f fabric.Frame) {
	if d.closed {
		return
	}
	p := d.getPkt()
	if err := decodePacketInto(p, f.Data); err != nil {
		d.putPkt(p)
		return // corrupt frame: dropped, transport recovery handles it
	}
	d.mRx.Add(int64(f.Size))
	d.mRxFrames.Inc()
	if d.fwdQPNs != nil && d.fwdQPNs[p.DstQPN] {
		d.mFwd.Inc()
		d.putPkt(p)
		d.fwdFn(f)
		d.putBuf(f.Data)
		return
	}
	d.rxq.Push(rxItem{p: p, src: f.Src, buf: f.Data})
	d.engine.Wake()
}

// pump starts the TX pacer if idle: one frame goes on the wire per link
// serialization slot.
func (d *Device) pump() {
	if d.txBusy || d.closed {
		return
	}
	f, ok := d.nextFrame()
	if !ok {
		return
	}
	d.txBusy = true
	d.mTx.Add(int64(f.Size))
	d.mTxFrames.Inc()
	d.net.Send(f)
	d.sched.AfterFunc(d.net.SerializationTime(f.Size), d.pumpCb)
}

// runEngine is the device processing engine: it drains received packets
// and advances requester state, including packets that arrive while it
// runs. Once the device is closed it leaves the queue as it is.
func (d *Device) runEngine() {
	for !d.closed && d.rxq.Len() > 0 {
		it := d.rxq.Pop()
		d.handlePacket(it)
		// The handlers copy payload bytes out before returning, so the
		// packet and its wire buffer can be recycled here.
		d.putPkt(it.p)
		d.putBuf(it.buf)
	}
}

// Close shuts the device down; in-flight work is dropped on the floor
// (the migration source reclaiming resources after migration).
func (d *Device) Close() { d.closed = true }

// errQPGone is returned by control verbs naming unknown resources.
func errUnknown(kind string, id uint32) error {
	return fmt.Errorf("rnic: unknown %s %#x", kind, id)
}

// --- Protection domains -------------------------------------------------

// PD is a protection domain.
type PD struct {
	Handle uint32
	dev    *Device
}

// AllocPD allocates a protection domain.
func (d *Device) AllocPD() *PD {
	pd := &PD{Handle: d.allocID(), dev: d}
	d.pds[pd.Handle] = pd
	return pd
}

// DeallocPD releases a protection domain.
func (d *Device) DeallocPD(pd *PD) {
	delete(d.pds, pd.Handle)
}

// --- Memory regions ------------------------------------------------------

// MR is a registered memory region. LKey and RKey are the physical keys
// the device allocated; they differ across registrations even of the
// same buffer, which is what MigrRDMA's key virtualization hides.
type MR struct {
	LKey, RKey uint32
	PD         *PD
	Addr       mem.Addr
	Len        uint64
	Access     Access
	as         *mem.AddressSpace
}

// RegMR registers [addr, addr+len) of the address space as. The caller
// proc is blocked for the (size-dependent) pinning latency.
func (d *Device) RegMR(pd *PD, as *mem.AddressSpace, addr mem.Addr, length uint64, access Access) (*MR, error) {
	if !as.Mapped(addr, length) {
		return nil, fmt.Errorf("rnic: RegMR of unmapped range [%#x,+%#x)", uint64(addr), length)
	}
	d.sched.Sleep(regMRLat + time.Duration(length>>20)*regMRPerMB)
	mr := &MR{
		LKey:   d.allocKey(),
		RKey:   d.allocKey(),
		PD:     pd,
		Addr:   addr,
		Len:    length,
		Access: access,
		as:     as,
	}
	d.mrs[mr.LKey] = mr
	d.rmrs[mr.RKey] = mr
	return mr, nil
}

// DeregMR deregisters a memory region.
func (d *Device) DeregMR(mr *MR) {
	d.sched.Sleep(destroyLat)
	delete(d.mrs, mr.LKey)
	delete(d.rmrs, mr.RKey)
	if slot := &d.lkeyCache[cacheSlot(mr.LKey)]; *slot == mr {
		*slot = nil
	}
	if slot := &d.rkeyCache[cacheSlot(mr.RKey)]; *slot == mr {
		*slot = nil
	}
	d.reg.Emit(metrics.Event{Kind: "dereg", Node: d.node, RKey: mr.RKey})
}

// lookupLocal resolves an SGE to its MR, validating range and (for recv
// targets) local-write permission.
func (d *Device) lookupLocal(pd *PD, sge SGE, needWrite bool) (*MR, error) {
	mr, ok := d.mrByLKey(sge.LKey)
	if !ok {
		return nil, errUnknown("lkey", sge.LKey)
	}
	if mr.PD != pd {
		return nil, fmt.Errorf("rnic: lkey %#x belongs to a different PD", sge.LKey)
	}
	if sge.Addr < mr.Addr || sge.Addr+mem.Addr(sge.Len) > mr.Addr+mem.Addr(mr.Len) {
		return nil, fmt.Errorf("rnic: SGE [%#x,+%d) outside MR", uint64(sge.Addr), sge.Len)
	}
	if needWrite && mr.Access&AccessLocalWrite == 0 {
		return nil, fmt.Errorf("rnic: MR lacks LOCAL_WRITE")
	}
	return mr, nil
}

// lookupRemote resolves an inbound rkey for a one-sided access.
func (d *Device) lookupRemote(rkey uint32, addr mem.Addr, length uint32, need Access) (*mem.AddressSpace, bool) {
	as, ok := d.lookupRemoteKey(rkey, addr, length, need)
	// Every verdict enters the stream, so a checker can prove no
	// post-Dereg rkey is ever admitted.
	d.reg.Emit(metrics.Event{Kind: "rkey", Node: d.node, RKey: rkey, OK: ok})
	return as, ok
}

func (d *Device) lookupRemoteKey(rkey uint32, addr mem.Addr, length uint32, need Access) (*mem.AddressSpace, bool) {
	slot := &d.rkeyCache[cacheSlot(rkey)]
	mr, ok := *slot, false
	if mr != nil && mr.RKey == rkey {
		ok = true
	} else {
		mr, ok = d.rmrs[rkey]
		if ok {
			*slot = mr
		}
	}
	if ok {
		// The cache only short-circuits the map hash; the bounds and
		// access checks run on every packet, as the hardware's MTT walk
		// would.
		if addr >= mr.Addr && addr+mem.Addr(length) <= mr.Addr+mem.Addr(mr.Len) && mr.Access&need != 0 {
			return mr.as, true
		}
		return nil, false
	}
	if mw, ok := d.mws[rkey]; ok {
		if addr >= mw.Addr && addr+mem.Addr(length) <= mw.Addr+mem.Addr(mw.Len) && mw.Access&need != 0 {
			return mw.MR.as, true
		}
	}
	return nil, false
}

// --- Memory windows -------------------------------------------------------

// MW is a memory window bound over a subrange of an MR, carrying its own
// rkey (type-2 window semantics, §3.2 "memory windows").
type MW struct {
	RKey   uint32
	MR     *MR
	Addr   mem.Addr
	Len    uint64
	Access Access
}

// BindMW binds a window over [addr, addr+len) of mr and returns it.
func (d *Device) BindMW(mr *MR, addr mem.Addr, length uint64, access Access) (*MW, error) {
	if addr < mr.Addr || addr+mem.Addr(length) > mr.Addr+mem.Addr(mr.Len) {
		return nil, fmt.Errorf("rnic: MW bind outside MR")
	}
	mw := &MW{RKey: d.allocKey(), MR: mr, Addr: addr, Len: length, Access: access}
	d.mws[mw.RKey] = mw
	return mw, nil
}

// DeallocMW releases a memory window.
func (d *Device) DeallocMW(mw *MW) { delete(d.mws, mw.RKey) }

// --- On-chip device memory ------------------------------------------------

// DM is an allocation of on-chip device memory (ibv_alloc_dm). The
// region is exposed to the process by mapping a device VMA; §3.3 restores
// it by re-allocating and mremap()ing to the original virtual address.
type DM struct {
	Handle uint32
	Len    uint64
}

// AllocDM reserves on-chip memory.
func (d *Device) AllocDM(length uint64) (*DM, error) {
	if d.dmUsed+int(length) > dmSize {
		return nil, fmt.Errorf("rnic: on-chip memory exhausted (%d of %d used)", d.dmUsed, dmSize)
	}
	d.dmUsed += int(length)
	return &DM{Handle: d.allocID(), Len: length}, nil
}

// FreeDM releases on-chip memory.
func (d *Device) FreeDM(dm *DM) { d.dmUsed -= int(dm.Len) }
