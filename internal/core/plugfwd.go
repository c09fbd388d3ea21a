package core

import (
	"fmt"

	"migrrdma/internal/fabric"
	"migrrdma/internal/metrics"
	"migrrdma/internal/rnic"
)

// This file implements the plug-and-forward cutover (ROADMAP item 2,
// the Katamaran sch_plug + tunnel shape): instead of letting blackout
// traffic bounce off half-dead QPs and recover by go-back-N, the
// destination installs a plug buffer for the migrating QPs before
// switch-partners, the source installs a forwarding rule that tunnels
// frames for the suspended QPs to that plug, and at RESUME the plug is
// flushed in arrival order ahead of live traffic.

// PortMigrFwd is the fabric mux port carrying tunneled (encapsulated)
// RDMA frames from the migration source to the destination's plug.
const PortMigrFwd = "migrfwd"

// tunnelOverhead models the encapsulation framing (outer Ethernet/IP/
// UDP header) added to a forwarded frame on the wire.
const tunnelOverhead = 20

// plugState is the plug of a migration's destination record. One
// plug-mode migration per destination host at a time: the plug is a
// port-level object, and selectively flushing one migration's frames
// while another's stay queued would break the arrival-order guarantee.
type plugState struct {
	// translate maps old (source-side) physical QPNs to the restored
	// destination QPNs for tunneled frames.
	translate map[uint32]uint32
	// newQPNs is the plug match set: frames addressed to these QPNs are
	// queued until the flush.
	newQPNs map[uint32]bool
	// mStraggler counts tunneled frames dropped instead of delivered:
	// control frames (a stale AckPSN replayed against the restored QPs
	// could acknowledge data the new stream never carried) and request
	// frames arriving after the flush (stale retransmits whose old PSN
	// could alias back into the re-paired connection's fresh window).
	mStraggler metrics.Counter
	// flushed is set once the fabric-level plug has been released. The
	// state outlives the flush so that late stragglers — still tunneled
	// by the source rule, which stays up until source reclaim — are
	// recognized and dropped with accounting rather than delivered.
	flushed bool
}

// plug returns the host's one plug and the migration holding it, if any.
func (d *Daemon) plug() (string, *plugState) {
	for id, m := range d.migs {
		if m.plug != nil {
			return id, m.plug
		}
	}
	return "", nil
}

// installPlug installs the destination-side plug buffer for a
// migration adopting the QPs in pairs (old physical QPN → new QPN).
func (d *Daemon) installPlug(migID string, pairs map[uint32]uint32) error {
	if id, st := d.plug(); st != nil {
		return fmt.Errorf("core: %s already has a plug installed (migration %s); concurrent plug-mode migrations sharing a destination are not supported", d.Node(), id)
	}
	if len(pairs) == 0 {
		return fmt.Errorf("core: migration %s has no QPN pairs to plug", migID)
	}
	st := &plugState{
		translate: make(map[uint32]uint32, len(pairs)),
		newQPNs:   make(map[uint32]bool, len(pairs)),
		// Registered here rather than at daemon construction so the
		// metric only exists in plug-mode runs (snapshot hashes of the
		// go-back-N goldens stay intact).
		mStraggler: d.registry().Counter("core", "forward_stragglers_dropped",
			metrics.L("node", d.Node())),
	}
	for old, nu := range pairs {
		st.translate[old] = nu
		st.newQPNs[nu] = true
	}
	match := func(f fabric.Frame) bool {
		if f.Port != rnic.PortRDMA {
			return false
		}
		qpn, ok := rnic.PeekDstQPN(f.Data)
		return ok && st.newQPNs[qpn]
	}
	if err := d.host.Net.InstallPlug(d.Node(), fabric.DefaultPlugLimit, match); err != nil {
		return err
	}
	d.record(migID).plug = st
	return nil
}

// flushPlug releases migID's plug in arrival order. The translate state
// is kept (marked flushed) so stragglers the source is still forwarding
// are recognized and dropped with accounting; dropPlug clears it at
// teardown. Idempotent: 0 when migID holds no plug.
func (d *Daemon) flushPlug(migID string) int {
	id, st := d.plug()
	if st == nil || id != migID {
		return 0
	}
	n := d.host.Net.FlushPlug(d.Node())
	st.flushed = true
	return n
}

// dropPlug takes migID's plug off its record, discarding whatever it
// still queues: the final teardown at source reclaim (ReleasePlug; the
// forwarding rule comes down at the same time, so no more tunneled
// frames will need translation) and the abort path (DiscardPlug).
// Idempotent.
func (d *Daemon) dropPlug(migID string) {
	id, st := d.plug()
	if st == nil || id != migID {
		return
	}
	if !st.flushed {
		d.host.Net.DiscardPlug(d.Node())
	}
	d.migs[migID].plug = nil
	d.settle(migID)
}

// onTunnelFrame handles one encapsulated frame arriving on PortMigrFwd:
// unwrap, translate the destination QPN from the old source-side number
// to the restored one, and merge it into the plug's arrival order.
// Control frames of the old connection, and any straggler arriving
// after the flush, are dropped with accounting — both are stale
// leftovers of the torn-down pairing, never the only copy of data.
func (d *Daemon) onTunnelFrame(f fabric.Frame) {
	_, st := d.plug()
	wire, ok := unwrapTunnel(f.Data)
	if !ok {
		return
	}
	if !rnic.IsRequestFrame(wire) {
		if st != nil {
			st.mStraggler.Inc()
		}
		return
	}
	if st == nil {
		// Tunnel frame with no plug state (e.g. raced a completed
		// teardown): nothing to translate it against; drop. The sender's
		// RTO recovers the data if it still matters.
		return
	}
	oldQPN, ok := rnic.PeekDstQPN(wire)
	if !ok {
		return
	}
	newQPN, ok := st.translate[oldQPN]
	if !ok {
		return
	}
	if st.flushed {
		// Late straggler: the plug has already been flushed, so this
		// frame is provably a stale retransmit — any old-QP frame still
		// unacked when wait-before-stop ended is either replayed as a
		// leftover WR after resume or was delivered before the dump. It
		// must NOT be re-offered to the restored QPs: the re-paired
		// connection starts a fresh PSN sequence, and once enough new
		// messages have flowed the straggler's old PSN lands back inside
		// the live window and would be accepted as new data. Drop it
		// with accounting instead.
		st.mStraggler.Inc()
		d.registry().Emit(metrics.Event{Kind: "plug", Node: d.Node(), Seq: uint64(oldQPN), Note: "drop-straggler"})
		return
	}
	data := append([]byte(nil), wire...)
	rnic.RewriteDstQPN(data, newQPN)
	inner := fabric.Frame{Src: tunnelOrigSrc(f.Data), Dst: d.Node(),
		Port: rnic.PortRDMA, Size: rnic.WireSizeOf(data), Data: data}
	d.host.Net.EnqueuePlugged(d.Node(), inner)
}

// installForward installs the source-side rule tunneling frames for the
// given suspended physical QPNs to the destination daemon's plug. It
// doubles as the post-dump divergence guard: once installed, late
// arrivals can no longer mutate the dumped transport state or provoke
// acks/naks from the half-dead source QPs.
func (d *Daemon) installForward(migID string, oldQPNs map[uint32]bool, dstNode string) error {
	for id, m := range d.migs {
		if m.forward && id != migID {
			return fmt.Errorf("core: %s already forwards for migration %s; concurrent plug-mode migrations sharing a source are not supported", d.Node(), id)
		}
	}
	if len(oldQPNs) == 0 {
		return fmt.Errorf("core: migration %s has no QPNs to forward", migID)
	}
	node := d.Node()
	d.dev.SetForward(oldQPNs, func(f fabric.Frame) {
		// f.Data is recycled when this returns; the wrap copies it.
		payload := wrapTunnel(f.Src, f.Data)
		d.host.Net.Send(fabric.Frame{Src: node, Dst: dstNode, Port: PortMigrFwd,
			Size: f.Size + tunnelOverhead, Data: payload})
	})
	d.record(migID).forward = true
	return nil
}

// removeForward tears the forwarding rule down. Idempotent.
func (d *Daemon) removeForward(migID string) {
	if m, ok := d.migs[migID]; ok && m.forward {
		d.dev.SetForward(nil, nil)
		m.forward = false
		d.settle(migID)
	}
}

// wrapTunnel encapsulates original wire bytes with their original
// source node: [1B len(src)][src][wire bytes].
func wrapTunnel(src string, wire []byte) []byte {
	b := make([]byte, 1+len(src)+len(wire))
	b[0] = byte(len(src))
	copy(b[1:], src)
	copy(b[1+len(src):], wire)
	return b
}

// unwrapTunnel returns the encapsulated wire bytes.
func unwrapTunnel(b []byte) ([]byte, bool) {
	if len(b) < 1 || len(b) < 1+int(b[0]) {
		return nil, false
	}
	return b[1+int(b[0]):], true
}

// tunnelOrigSrc returns the encapsulated original source node.
func tunnelOrigSrc(b []byte) string {
	if len(b) < 1 || len(b) < 1+int(b[0]) {
		return ""
	}
	return string(b[1 : 1+int(b[0])])
}

// --- Plugin verbs (called by the runc phase engine) -----------------------

// InstallPlug installs the destination-side plug buffer for every QP
// being adopted by this migration. Must run after PostRestore (the
// old→new QPN pairing exists once the staged restore is bound).
func (pl *Plugin) InstallPlug() error {
	if pl.staged == nil || len(pl.staged.qpnPairs) == 0 {
		return fmt.Errorf("core: InstallPlug before restore produced QPN pairs")
	}
	return pl.Dst.installPlug(pl.ID, pl.staged.qpnPairs)
}

// DiscardPlug is InstallPlug's compensation: tear the plug down,
// dropping anything queued. Safe to call when nothing was installed.
func (pl *Plugin) DiscardPlug() {
	pl.Dst.dropPlug(pl.ID)
}

// InstallForward installs the source-side forwarding rule for the
// suspended QPs of this migration.
func (pl *Plugin) InstallForward() error {
	if pl.staged == nil || len(pl.staged.qpnPairs) == 0 {
		return fmt.Errorf("core: InstallForward before restore produced QPN pairs")
	}
	oldQPNs := make(map[uint32]bool, len(pl.staged.qpnPairs))
	for old := range pl.staged.qpnPairs {
		oldQPNs[old] = true
	}
	return pl.Src.installForward(pl.ID, oldQPNs, pl.Dst.Node())
}

// RemoveForward is InstallForward's compensation and the first half of
// the flush phase. Safe to call when nothing was installed.
func (pl *Plugin) RemoveForward() {
	pl.Src.removeForward(pl.ID)
}

// FlushPlug releases the plug in arrival order, ahead of live traffic.
// Returns the number of frames delivered. The forwarding rule and the
// plug's translate state stay up until ReleasePlug: anything still in
// flight toward the source keeps being tunneled over, and the restored
// QPs' PSN windows accept or reject the late deliveries.
func (pl *Plugin) FlushPlug() int {
	return pl.Dst.flushPlug(pl.ID)
}

// ReleasePlug tears down the forwarding rule and the residual plug
// state. Runs at source reclaim, off the blackout's critical path.
func (pl *Plugin) ReleasePlug() {
	pl.Src.removeForward(pl.ID)
	pl.Dst.dropPlug(pl.ID)
}
