package fabric

import (
	"fmt"
	"strconv"
	"time"

	"migrrdma/internal/metrics"
)

// This file is the two-tier topology: per-rack ToR switches joined by a
// spine over oversubscribed uplinks. The flat single-switch fabric of
// fabric.go is the degenerate 1-rack case — with Topology.Racks <= 1
// nothing here runs, no rack metrics are registered, and the Send path
// is the flat fabric's, event for event (every flat-rig chaos golden
// pins that).
//
// A cross-rack frame traverses five links instead of three:
//
//	host ──serialize @ LinkRate──▶ ToR(src)           (+ propDelay)
//	ToR(src) ──serialize @ UplinkRate──▶ spine        (+ SpineDelay)
//	spine ──serialize @ UplinkRate──▶ ToR(dst)        (+ SpineDelay)
//	ToR(dst) ──serialize @ LinkRate──▶ host           (+ propDelay)
//
// The two middle hops share per-rack state: every host of a rack books
// the same uplink (ToR→spine) and downlink (spine→ToR), so with H
// hosts per rack at link rate R and an uplink at U bps the
// oversubscription ratio H·R/U emerges as queueing on rackLink busy
// times — the brownout a rack-wide drain inflicts on itself.
//
// Same-rack frames never touch the spine and take exactly the flat
// path.

// Topology declares the two-tier fabric. The zero value is the flat
// single-switch network.
type Topology struct {
	// Racks is the number of ToR switches; 0 or 1 means flat.
	Racks int
	// HostsPerRack is the block size consumers (cluster.New) use to
	// assign hosts to racks: host i lands in rack i/HostsPerRack. The
	// fabric itself takes explicit per-port racks via SetRack.
	HostsPerRack int
	// UplinkRate is the ToR↔spine rate per direction in bits per
	// second; 0 means LinkRate (no oversubscription).
	UplinkRate int64
	// SpineDelay is the one-way ToR↔spine propagation delay, paid twice
	// per crossing; 0 means a host link's delay.
	SpineDelay time.Duration
}

// Flat reports whether the topology degenerates to one switch.
func (t Topology) Flat() bool { return t.Racks <= 1 }

// rackLink is the shared ToR↔spine link pair of one rack. upBusy is
// the ToR→spine direction (booked by sources in the rack), downBusy
// the spine→ToR direction (booked for destinations in the rack).
type rackLink struct {
	upBusy, downBusy time.Duration

	// lossProb drops frames crossing this rack's spine link (either
	// direction, drawn per half) with the given probability; lossPort
	// restricts the draws to one mux port ("" = every port).
	lossProb float64
	lossPort string
	// blackhole drops every matching frame crossing the spine link —
	// the rack-uplink partition. bhPort restricts it to one port, so a
	// chaos schedule can partition the RDMA path while the reliable
	// control/image channels stay up (the only partition a migration
	// can survive; see internal/chaos).
	blackhole bool
	bhPort    string

	mUpBytes, mDownBytes metrics.Counter
	mDropped             metrics.Counter
	mUpBacklog           metrics.Gauge
	mDownBacklog         metrics.Gauge
}

// initTopology builds the rack links and registers their metrics.
// Called from New only when the topology is non-flat, so flat networks
// register nothing and their metric snapshots stay byte-identical.
func (n *Network) initTopology() {
	n.racks = make([]*rackLink, n.cfg.Topology.Racks)
	for r := range n.racks {
		b := n.reg.Block("fabric", metrics.L("rack", strconv.Itoa(r)), 5)
		n.racks[r] = &rackLink{
			mUpBytes:     b.Counter("uplink_tx_bytes"),
			mDownBytes:   b.Counter("uplink_rx_bytes"),
			mDropped:     b.Counter("uplink_dropped_frames"),
			mUpBacklog:   b.Gauge("uplink_backlog_ns"),
			mDownBacklog: b.Gauge("uplink_downlink_backlog_ns"),
		}
	}
}

// SetRack assigns an attached node to a rack. Nodes default to rack 0;
// topology consumers assign racks at attach time, before traffic.
func (n *Network) SetRack(name string, rack int) {
	if n.racks == nil {
		if rack == 0 {
			return
		}
		panic("fabric: SetRack on a flat network")
	}
	if rack < 0 || rack >= len(n.racks) {
		panic(fmt.Sprintf("fabric: rack %d out of range [0,%d)", rack, len(n.racks)))
	}
	n.mustPort(name).rack = rack
}

// Rack reports the rack an attached node is assigned to.
func (n *Network) Rack(name string) int { return n.mustPort(name).rack }

// SetUplinkLoss drops frames crossing the rack's spine link with
// probability p, restricted to the given mux port ("" = every port).
// Draws use the scheduler's deterministic RNG, one for the ToR→spine
// half and one for the spine→ToR half, matching the per-port
// source-loss/destination-fault split.
func (n *Network) SetUplinkLoss(rack int, port string, p float64) {
	l := n.mustRack(rack)
	l.lossProb, l.lossPort = p, port
}

// SetUplinkBlackhole drops every matching frame crossing the rack's
// spine link — the rack-uplink partition of a drain chaos schedule.
// port restricts it to one mux port ("" = every port).
func (n *Network) SetUplinkBlackhole(rack int, port string, on bool) {
	l := n.mustRack(rack)
	l.blackhole, l.bhPort = on, port
}

// UplinkBytes reports cumulative bytes booked onto the rack's
// ToR→spine and spine→ToR links.
func (n *Network) UplinkBytes(rack int) (up, down int64) {
	l := n.mustRack(rack)
	return l.mUpBytes.Value(), l.mDownBytes.Value()
}

func (n *Network) mustRack(rack int) *rackLink {
	if n.racks == nil {
		panic("fabric: rack operation on a flat network")
	}
	if rack < 0 || rack >= len(n.racks) {
		panic(fmt.Sprintf("fabric: rack %d out of range [0,%d)", rack, len(n.racks)))
	}
	return n.racks[rack]
}

// uplinkSerialization is the time a frame occupies one spine-link
// direction.
func (n *Network) uplinkSerialization(size int) time.Duration {
	rate := n.cfg.Topology.UplinkRate
	if rate == 0 {
		rate = LinkRate
	}
	return time.Duration(int64(size) * 8 * int64(time.Second) / rate)
}

// spineDelay is the one-way ToR↔spine propagation delay.
func (n *Network) spineDelay() time.Duration {
	if d := n.cfg.Topology.SpineDelay; d != 0 {
		return d
	}
	return propDelay
}

// lossDraw reports whether the rack link's fault state drops a frame on
// one spine-link half, drawing from the local scheduler's RNG. The
// blackhole check consumes no RNG draw.
func (l *rackLink) lossDraw(n *Network, f Frame) bool {
	if l.blackhole && (l.bhPort == "" || l.bhPort == f.Port) {
		return true
	}
	return l.lossProb > 0 && (l.lossPort == "" || l.lossPort == f.Port) &&
		n.sched.Rand().Float64() < l.lossProb
}

// bookSpineUp books the ToR→spine hop of the frame's source rack:
// serialization on the shared uplink starting when the frame reached
// the ToR, then the spine propagation delay. It returns the time the
// frame arrives at the spine and whether it survived the uplink fault
// state.
func (n *Network) bookSpineUp(rack int, f Frame, atToR time.Duration) (time.Duration, bool) {
	l := n.racks[rack]
	start := atToR
	if l.upBusy > start {
		start = l.upBusy
	}
	l.upBusy = start + n.uplinkSerialization(f.Size)
	l.mUpBytes.Add(int64(f.Size))
	l.mUpBacklog.Set(int64(l.upBusy - n.sched.Now()))
	if l.lossDraw(n, f) {
		l.mDropped.Inc()
		return l.upBusy + n.spineDelay(), false
	}
	return l.upBusy + n.spineDelay(), true
}

// bookSpineDown books the spine→ToR hop of the frame's destination
// rack: store-and-forward serialization on the shared downlink, then
// the spine propagation delay down to the ToR. It returns the time the
// frame arrives at the destination ToR and whether it survived.
func (n *Network) bookSpineDown(rack int, f Frame, atSpine time.Duration) (time.Duration, bool) {
	l := n.racks[rack]
	start := atSpine
	if l.downBusy > start {
		start = l.downBusy
	}
	l.downBusy = start + n.uplinkSerialization(f.Size)
	l.mDownBytes.Add(int64(f.Size))
	l.mDownBacklog.Set(int64(l.downBusy - n.sched.Now()))
	if l.lossDraw(n, f) {
		l.mDropped.Inc()
		return l.downBusy + n.spineDelay(), false
	}
	return l.downBusy + n.spineDelay(), true
}
