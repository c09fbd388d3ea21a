// Package chaos is a deterministic fault-injection and invariant-
// checking harness for live migration (the §5.3 transparency claim).
//
// One runner, Run, executes every entry of one catalogue, Scenarios. A
// Scenario declares its rig, its workload, how the workload is migrated,
// the faults that perturb the fabric — loss bursts, duplicated and
// reordered frames, link-rate drops, data-path blackholes timed to land
// inside the checkpoint/restore window — an optional injected abort
// point, and the checkers that judge the run: completions exactly-once
// and in order across the migration boundary, PSN/ACK state monotone
// through go-back-N recovery, rkey protection never admitting a
// post-Dereg access, every CQ poller drained, traffic resumed on the
// right node, and no migration residue left on any host.
//
// Everything (fault draws, frame timing, migration interleaving) runs
// on the seeded discrete-event scheduler, so a run is fully determined
// by (seed, scenario). The Report carries two hashes: Behaviour over
// the event ledger (what happened, and when) and Telemetry over the
// metrics snapshots (what was counted). DESIGN.md "Chaos harness" says
// when each may be re-baselined.
package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"time"

	"migrrdma/internal/fabric"
	"migrrdma/internal/metrics"
	"migrrdma/internal/rnic"
	"migrrdma/internal/sim"
)

// FaultKind selects a fabric-level fault.
type FaultKind string

const (
	// FaultLoss drops frames to/from Node with probability Prob.
	FaultLoss FaultKind = "loss"
	// FaultDuplicate delivers frames arriving at Node twice with
	// probability Prob.
	FaultDuplicate FaultKind = "duplicate"
	// FaultReorder holds frames arriving at Node back by Delay with
	// probability Prob, letting later frames overtake.
	FaultReorder FaultKind = "reorder"
	// FaultRateDrop lowers Node's link rate to Rate bits per second.
	FaultRateDrop FaultKind = "rate-drop"
	// FaultBlackhole drops every RDMA frame at Node (the mux port the
	// RNIC listens on) while the reliable control and image-transfer
	// channels stay up — the only partition a migration can survive,
	// and what "partition inside the checkpoint window" means here.
	FaultBlackhole FaultKind = "blackhole"
	// FaultUplinkLoss drops frames crossing Rack's ToR↔spine link with
	// probability Prob. Like node faults it defaults to the RDMA port:
	// the cross-rack control and image channels model TCP and have no
	// retransmit to recover with.
	FaultUplinkLoss FaultKind = "uplink-loss"
	// FaultUplinkPartition blackholes Rack's spine link for the RDMA
	// port — a whole rack cut off from cross-rack RDMA while drains are
	// in flight, the drain tier's partition-inside-the-window.
	FaultUplinkPartition FaultKind = "uplink-partition"
)

// Fault is one scheduled fault.
type Fault struct {
	Kind  FaultKind
	Node  string
	Prob  float64       // loss / duplicate / reorder probability
	Delay time.Duration // reorder hold-back
	Rate  int64         // rate-drop bits per second
	// Rack targets the uplink fault kinds at one rack's spine link;
	// node-level kinds ignore it.
	Rack int

	// Port selects the mux port the fault applies to; empty means the
	// RDMA data port. Plug-forward scenarios use it to perturb the
	// migration tunnel (core.PortMigrFwd) without touching live traffic.
	Port string

	// At arms the fault at an absolute virtual time (the run starts at
	// t=0, traffic is warm by Warmup). Ignored when Phase is set.
	At time.Duration
	// Phase arms the fault when the migration workflow enters the named
	// runc stage — every workflow phase is one ("predump", "precopy",
	// "suspend-wbs", "final-dump", "transfer", "resume", ...).
	Phase string
	// Mig restricts a Phase fault to the named migration in runs with
	// several (the orchestrator's "d1/<src>/<container>"); empty matches
	// every migration. Ignored for absolute-time faults.
	Mig string
	// Duration disarms the fault this long after arming; zero keeps it
	// armed until the driver's final cleanup.
	Duration time.Duration
}

// recorder accumulates the ledger: the run's stream events of the
// declared kinds (cqe, ack, exp, dereg, rkey, plug, pchan; see
// run.listen) and the harness's own (stage, fault, tenant-*). Both arrive inline on the scheduler
// loop, so appends are single-threaded and ordered deterministically.
type recorder struct {
	sched  *sim.Scheduler
	events []metrics.Event
}

// add records one of the harness's own entries, stamped now.
func (rc *recorder) add(e metrics.Event) {
	e.T = rc.sched.Now()
	rc.events = append(rc.events, e)
}

// hash folds the ledger into the deterministic behaviour hash. Every
// field but Mig enters it, in the layout the goldens were recorded with.
func (rc *recorder) hash() string {
	h := sha256.New()
	for _, e := range rc.events {
		fmt.Fprintf(h, "%d|%s|%s|%d|%d|%d|%d|%d|%d|%v|%s\n",
			e.T, e.Kind, e.Node, e.QPN, e.Seq, e.PSN, e.Op, e.Status, e.RKey, e.OK, e.Note)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// timeline renders the migration-level events (everything but the
// per-packet transport ledger) for a failing run's diagnostics.
func (rc *recorder) timeline() []string {
	var out []string
	for _, e := range rc.events {
		detail := e.Note
		switch e.Kind {
		case "stage":
		case "fault":
			detail = fmt.Sprintf("%s %s armed=%v", e.Note, e.Node, e.OK)
		case "plug", "pchan":
			detail = fmt.Sprintf("%s #%d", e.Note, e.Seq)
		default:
			continue
		}
		out = append(out, fmt.Sprintf("%12v %-5s %s", e.T, e.Kind, detail))
	}
	return out
}

// injector applies and clears faults on the fabric. Loss, duplication
// and reordering are injected on the RDMA mux port only: the OOB
// control plane and image-transfer stream model TCP connections whose
// retransmission is abstracted away, so corrupting them would assert
// nothing about RDMA migration (and the simulated control channels have
// no retransmit to recover with). Rate drops affect the whole link.
type injector struct {
	sched *sim.Scheduler
	net   *fabric.Network
	rec   *recorder
	armed []Fault
	// activations counts arm calls over the whole run.
	activations int
}

func (in *injector) arm(f Fault) {
	in.apply(f, true)
	in.armed = append(in.armed, f)
	in.activations++
	if f.Duration > 0 {
		in.sched.AfterFunc(f.Duration, func() { in.apply(f, false) })
	}
}

func (in *injector) clearAll() {
	for _, f := range in.armed {
		in.apply(f, false)
	}
	in.armed = nil
}

// apply sets (on) or clears (off) one fault. Clearing is idempotent, so
// a Duration disarm followed by the final clearAll is harmless.
func (in *injector) apply(f Fault, on bool) {
	port := f.Port
	if port == "" {
		port = rnic.PortRDMA
	}
	// The port enters the ledger note so a tunnel fault and a data-port
	// fault can never alias in the behaviour hash.
	note := string(f.Kind) + "@" + port
	if f.Kind == FaultUplinkLoss || f.Kind == FaultUplinkPartition {
		// Rack faults have no node; the rack enters the note instead so
		// two racks' faults never alias in the trace hash.
		note += "#rack" + strconv.Itoa(f.Rack)
	}
	in.rec.add(metrics.Event{Kind: "fault", Node: f.Node, OK: on, Note: note})
	p, rate := f.Prob, f.Rate
	if f.Kind == FaultBlackhole && p == 0 {
		p = 1
	}
	if !on {
		p, rate = 0, 0
	}
	switch f.Kind {
	case FaultLoss, FaultBlackhole:
		in.net.SetPortLoss(f.Node, port, p)
	case FaultDuplicate:
		in.net.SetPortDuplicate(f.Node, port, p)
	case FaultReorder:
		in.net.SetPortReorder(f.Node, port, p, f.Delay)
	case FaultRateDrop:
		in.net.SetRate(f.Node, rate)
	case FaultUplinkLoss:
		in.net.SetUplinkLoss(f.Rack, port, p)
	case FaultUplinkPartition:
		in.net.SetUplinkBlackhole(f.Rack, port, on)
	default:
		panic("chaos: unknown fault kind " + string(f.Kind))
	}
}
