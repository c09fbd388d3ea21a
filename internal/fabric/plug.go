package fabric

import (
	"fmt"

	"migrrdma/internal/metrics"
)

// plug is the per-port cutover buffer of the plug-and-forward migration
// mode (the Katamaran sch_plug shape): while installed, frames matching
// the predicate are queued instead of delivered, so traffic addressed
// to a migrating QP waits at the destination NIC rather than bouncing
// off a not-yet-restored queue pair and triggering go-back-N. FlushPlug
// releases the queue in arrival order ahead of live traffic.
type plug struct {
	match func(Frame) bool
	limit int
	// frames and seqs hold the queued frames and their arrival sequence
	// numbers, in arrival order.
	frames []Frame
	seqs   []uint64
	// nextSeq numbers every frame the plug sees (buffered or rejected),
	// so a listener can prove flush order equals arrival order.
	nextSeq uint64

	mBuffered   metrics.Counter
	mFlushDepth metrics.Gauge
	mOverflow   metrics.Counter
}

// DefaultPlugLimit bounds a plug buffer when the caller passes no
// explicit limit. At 100 Gbps a full blackout window is well under a
// thousand MTU frames for the workloads we model.
const DefaultPlugLimit = 512

// InstallPlug installs a plug buffer on the node's port. Frames for
// which match returns true are queued (bounded by limit) instead of
// delivered until FlushPlug or DiscardPlug removes the plug.
//
// Overflow policy: reject-newest. When the buffer is full the arriving
// frame is dropped and accounted in plug_overflow_packets (and the
// port's dropped_frames), never an already-queued one — dropping the
// oldest would reorder the eventual flush relative to arrival order,
// which is the invariant the plug exists to provide. A rejected frame
// is recovered by the sender's normal RTO path, so exactly-once
// delivery is preserved.
//
// Every plug event — "buffer", "flush", "drop-overflow", "discard" —
// enters the registry's stream as a plug event carrying the frame's
// arrival sequence number; the chaos harness asserts from it that flush
// order equals arrival order and that nothing is delivered twice.
func (n *Network) InstallPlug(node string, limit int, match func(Frame) bool) error {
	pt := n.mustPort(node)
	if pt.plug != nil {
		return fmt.Errorf("fabric: plug already installed on %s", node)
	}
	if limit <= 0 {
		limit = DefaultPlugLimit
	}
	if match == nil {
		return fmt.Errorf("fabric: plug on %s needs a match predicate", node)
	}
	b := n.reg.Block("fabric", metrics.L("node", node), 3)
	pt.plug = &plug{
		match: match, limit: limit,
		mBuffered:   b.Counter("plug_buffered_packets"),
		mFlushDepth: b.Gauge("plug_flush_depth"),
		mOverflow:   b.Counter("plug_overflow_packets"),
	}
	return nil
}

// EnqueuePlugged queues a frame into the node's plug buffer as if it
// had arrived on the wire, subject to the same bound and overflow
// policy. The source daemon's forwarding tunnel uses it to merge
// stragglers (frames that reached the old NIC after suspend) into the
// same ordered queue as frames that arrived at the destination
// directly. Returns false when no plug is installed; the caller then
// decides the frame's fate.
func (n *Network) EnqueuePlugged(node string, f Frame) bool {
	pt := n.mustPort(node)
	if pt.plug == nil {
		return false
	}
	pt.plug.enqueue(n, pt, f)
	return true
}

// PlugDepth reports the number of frames currently queued on the
// node's plug, or -1 when no plug is installed.
func (n *Network) PlugDepth(node string) int {
	pt := n.mustPort(node)
	if pt.plug == nil {
		return -1
	}
	return len(pt.plug.frames)
}

// FlushPlug removes the node's plug and delivers every queued frame, in
// arrival order, to the port handler. The flush runs inline on the
// scheduler loop: frames sent by handlers during the flush become
// scheduled deliveries that run strictly after it, so queued frames
// come out ahead of any live traffic. Returns the number of frames
// delivered; 0 with no plug installed (idempotent, compensation-safe).
func (n *Network) FlushPlug(node string) int {
	pt := n.mustPort(node)
	pl := pt.plug
	if pl == nil {
		return 0
	}
	// Detach before delivering: handlers run during the flush must see
	// an unplugged port, or re-sent frames could be re-queued into a
	// buffer that is being torn down.
	pt.plug = nil
	depth := len(pl.frames)
	pl.mFlushDepth.Set(int64(depth))
	for i, f := range pl.frames {
		n.plugEvent(pt, "flush", pl.seqs[i])
		pt.deliver(f)
	}
	return depth
}

// DiscardPlug removes the node's plug and drops every queued frame,
// retiring their buffers. It is the abort-path teardown: an unwound
// migration must not leak half a blackout window of traffic into QPs
// that were never activated. Returns the number of frames discarded; 0
// with no plug installed (idempotent, compensation-safe).
func (n *Network) DiscardPlug(node string) int {
	pt := n.mustPort(node)
	pl := pt.plug
	if pl == nil {
		return 0
	}
	pt.plug = nil
	depth := len(pl.frames)
	for i, f := range pl.frames {
		n.plugEvent(pt, "discard", pl.seqs[i])
		if f.Data != nil {
			n.PutBuf(f.Data)
		}
	}
	return depth
}

// enqueue applies the bound and queues the frame.
func (pl *plug) enqueue(n *Network, pt *port, f Frame) {
	seq := pl.nextSeq
	pl.nextSeq++
	if len(pl.frames) >= pl.limit {
		// Reject-newest: see InstallPlug.
		pl.mOverflow.Inc()
		pt.mDropped.Inc()
		n.plugEvent(pt, "drop-overflow", seq)
		if f.Data != nil {
			n.PutBuf(f.Data)
		}
		return
	}
	pl.frames = append(pl.frames, f)
	pl.seqs = append(pl.seqs, seq)
	pl.mBuffered.Inc()
	n.plugEvent(pt, "buffer", seq)
}

// plugEvent emits one plug event of the port's node.
func (n *Network) plugEvent(pt *port, note string, seq uint64) {
	n.reg.Emit(metrics.Event{Kind: "plug", Node: pt.name, Seq: seq, Note: note})
}
