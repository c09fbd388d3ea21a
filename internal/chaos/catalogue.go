package chaos

import (
	"fmt"
	"slices"
	"time"

	"migrrdma/internal/core"
	"migrrdma/internal/fabric"
	"migrrdma/internal/runc"
)

// Scenarios returns the catalogue: every scenario the sweep tests, the
// golden gate and cmd/migrchaos run, in the stable order the golden
// file is recorded in. Fault windows are sized against the transport
// budgets: a blackhole must clear within MaxRetries × RTO (7 × 500 µs)
// or the QP enters the error state, and phase-armed faults land inside
// the checkpoint/restore window regardless of when migration starts.
func Scenarios() []Scenario {
	return slices.Concat(singleTier(), abortTier(), plugTier(), plugAbortTier(),
		pipelinedTier(), pipelinedAbortTier(), tenantTier(), concurrentTier(), drainTier())
}

// ScenarioByName returns the named catalogue entry, or false.
func ScenarioByName(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// threeHost is the rig and workload of the single-migration perftest
// tiers: one pair between "src" and "partner", the moving side going
// src → dst under a direct runc.Migrator.
func threeHost(name string, moves Side, faults ...Fault) Scenario {
	pair := Pair{Client: "src", Server: "partner", Moves: Client, Dst: "dst"}
	if moves == Server {
		pair = Pair{Client: "partner", Server: "src", Moves: Server, Dst: "dst"}
	}
	return Scenario{
		Name:     name,
		Rig:      Rig{Hosts: []string{"src", "dst", "partner"}},
		Workload: Workload{Pairs: []Pair{pair}},
		Faults:   faults,
		Checkers: []Checker{ledgerChecker},
	}
}

// mustMove sets a scenario's vacuity guards.
func mustMove(sc Scenario, counters ...string) Scenario {
	sc.MustMove = counters
	return sc
}

// singleTier migrates the traffic source (the client) src → dst while
// the standard fault library perturbs the fabric.
func singleTier() []Scenario {
	return []Scenario{
		threeHost("single/clean", Client),
		mustMove(threeHost("single/loss-burst", Client,
			// Back-to-back bursts on both traffic endpoints while the
			// migration is (typically) in its pre-dump/pre-restore work.
			Fault{Kind: FaultLoss, Node: "src", Prob: 0.25, At: Warmup, Duration: 2 * time.Millisecond},
			Fault{Kind: FaultLoss, Node: "partner", Prob: 0.25, At: Warmup + time.Millisecond, Duration: 2 * time.Millisecond},
			// And a second burst timed to the resume phase, when replayed
			// WRs are back in flight.
			Fault{Kind: FaultLoss, Node: "partner", Prob: 0.25, Phase: "resume", Duration: time.Millisecond},
		), "fabric/dropped_frames"),
		mustMove(threeHost("single/duplicate", Client,
			Fault{Kind: FaultDuplicate, Node: "partner", Prob: 0.3, At: Warmup, Duration: 5 * time.Millisecond},
			Fault{Kind: FaultDuplicate, Node: "src", Prob: 0.3, At: Warmup, Duration: 5 * time.Millisecond},
			Fault{Kind: FaultDuplicate, Node: "dst", Prob: 0.3, Phase: "resume", Duration: 2 * time.Millisecond},
		), "fabric/duplicated_frames"),
		mustMove(threeHost("single/reorder", Client,
			Fault{Kind: FaultReorder, Node: "partner", Prob: 0.2, Delay: 20 * time.Microsecond, At: Warmup, Duration: 5 * time.Millisecond},
			Fault{Kind: FaultReorder, Node: "src", Prob: 0.2, Delay: 20 * time.Microsecond, At: Warmup + time.Millisecond, Duration: 4 * time.Millisecond},
		), "fabric/reordered_frames"),
		mustMove(threeHost("single/mid-freeze-partition", Client,
			// A full RDMA-data-path partition across the checkpoint
			// window. The partner blackholes while the client is still
			// posting during pre-dump (guaranteeing unacked in-flight
			// work when suspension hits), again while wait-before-stop
			// runs, and once more while the destination resumes. 2.5 ms
			// stays inside the 7 × 500 µs retry budget of any one WR.
			Fault{Kind: FaultBlackhole, Node: "partner", Phase: "predump", Duration: 2500 * time.Microsecond},
			Fault{Kind: FaultBlackhole, Node: "src", Phase: "suspend-wbs", Duration: time.Millisecond},
			Fault{Kind: FaultBlackhole, Node: "partner", Phase: "resume", Duration: time.Millisecond},
		), "fabric/dropped_frames"),
		threeHost("single/rate-drop", Client,
			// The source link renegotiates down 10× during steady state
			// and the destination link is degraded through the image
			// transfer and restore.
			Fault{Kind: FaultRateDrop, Node: "src", Rate: 10e9, At: Warmup, Duration: 10 * time.Millisecond},
			Fault{Kind: FaultRateDrop, Node: "dst", Rate: 10e9, Phase: "transfer", Duration: 10 * time.Millisecond},
		),
	}
}

// abortPhases are the workflow phases the fail-and-recover tiers inject
// hard faults at. They bracket the blackout window: before the freeze
// (suspended QPs must resume), at the freeze boundary, after the final
// dump, after the transfer (the destination holds a fully staged
// restore that must be torn down), and at the entry of the partner
// switch-over — the last instant an abort is still possible.
var abortPhases = []string{"suspend-wbs", "freeze", "final-dump", "finalize", "switch-partners"}

// abortTier is singleTier's clean run made to fail at each abort phase:
// the migration must abort with the phase named in the error, the
// client must resume on the SOURCE and keep making exactly-once
// in-order progress, and nothing may be left behind anywhere.
func abortTier() []Scenario {
	var out []Scenario
	for _, ph := range abortPhases {
		sc := threeHost("abort/"+ph, Client)
		sc.Abort = Abort{Phase: ph}
		out = append(out, sc)
	}
	return out
}

// plugForward turns a server-migration scenario into a plug-and-forward
// cutover. Frames either bounce off the restored-but-not-yet-resumed
// QPs and recover by go-back-N (RNR → retransmit), or — in this mode —
// wait in the destination plug and are flushed in arrival order once
// the service is back.
func plugForward(sc Scenario) Scenario {
	sc.Migrate.Cutover = runc.CutoverPlugForward
	// Deep receive ring: partners resume right after ⑦ (before the thaw
	// completes), so the frozen poll loop must not turn resumed traffic
	// into RNR flow control — posted receives absorb it.
	sc.Workload.RecvDepth = 64
	return sc
}

// plugTier migrates the SERVER under the plug-forward cutover. Beyond
// the clean baseline, the schedules perturb the two data paths the mode
// introduces: frames headed for the plug (the dst RDMA port during the
// plug window) and frames tunneled by the source-side forwarding rule
// (the core.PortMigrFwd mux port).
func plugTier() []Scenario {
	// stragglerLoss + stragglerHold are the forward-path trigger.
	//
	// The loss is heavy bidirectional loss on the source's RDMA port
	// from the first pre-dump onward: the client's send window strands
	// in flight, wait-before-stop times out (§3.4 "buggy network"), and
	// the client's pre-switch QPs keep RTO-retransmitting the stranded
	// window into the blackout. It clears shortly before the final dump
	// completes — but the hold (a full-probability reorder with a 1 ms
	// delay, armed once suspension starts) catches every RTO burst sent
	// after the clear and parks it on the wire, so nothing lands on the
	// still-live source QPs between the dump and the finalize (that
	// would diverge the dumped state from the wire state). The parked
	// bursts are released after the source container is finalized and
	// the forwarding rule is up, reaching a source NIC that has no QPs
	// left — only the rule — and are tunneled to the destination. The
	// stranded WRs themselves are replayed on the fresh QP pairing
	// after resume, so delivery stays exactly-once: the tunneled copies
	// die against the restored QPs' PSN window. Scenarios built on the
	// pair add WBSTimeout (reach the timeout path quickly) and
	// UnlimitedRetries (survive a stall far longer than MaxRetries×RTO).
	stragglerLoss := Fault{Kind: FaultLoss, Node: "src", Prob: 1.0, Phase: "predump",
		Duration: 7600 * time.Microsecond}
	stragglerHold := Fault{Kind: FaultReorder, Node: "src", Prob: 1.0,
		Delay: time.Millisecond, Phase: "suspend-wbs", Duration: 5 * time.Millisecond}
	// stragglers builds a scenario on the pair; the whole point of these
	// is traffic through the source-side forwarding rule.
	stragglers := func(name string, extra ...Fault) Scenario {
		sc := threeHost(name, Server, append([]Fault{stragglerLoss, stragglerHold}, extra...)...)
		sc.Rig.WBSTimeout = time.Millisecond
		sc.Rig.UnlimitedRetries = true
		sc.MustMove = []string{"rnic/forwarded_packets"}
		return sc
	}
	tier := []Scenario{
		threeHost("plug/clean-plug", Server),
		mustMove(threeHost("plug/drop-plugged", Server,
			// Frames racing toward the plug are dropped on the floor just
			// before it; the sender's retransmission recovers them after
			// the flush.
			Fault{Kind: FaultLoss, Node: "dst", Prob: 0.4, Phase: "install-plug", Duration: 2 * time.Millisecond},
		), "fabric/dropped_frames"),
		mustMove(threeHost("plug/dup-plugged", Server,
			// Frames entering the plug are duplicated, so the flush
			// replays them twice; the responder PSN window must absorb the
			// copies without a second delivery.
			Fault{Kind: FaultDuplicate, Node: "dst", Prob: 0.5, Phase: "install-plug", Duration: 2 * time.Millisecond},
		), "fabric/duplicated_frames"),
		stragglers("plug/forward-stragglers"),
		stragglers("plug/drop-forwarded",
			// Tunneled stragglers are dropped in flight; every one is a
			// stale retransmit whose data the post-resume replay
			// recovers, so nothing may be lost end to end.
			Fault{Kind: FaultLoss, Node: "dst", Port: core.PortMigrFwd, Prob: 1.0,
				Phase: "install-forward", Duration: 2 * time.Millisecond}),
		stragglers("plug/delay-forwarded",
			// Tunneled stragglers are held back past the flush, landing
			// on the restored QPs through the late-straggler re-offer
			// path where the responder PSN window must reject them.
			Fault{Kind: FaultReorder, Node: "dst", Port: core.PortMigrFwd, Prob: 1.0,
				Delay: 800 * time.Microsecond, Phase: "install-forward", Duration: 2 * time.Millisecond}),
	}
	for i := range tier {
		tier[i] = plugForward(tier[i])
		tier[i].MustMove = append(tier[i].MustMove, "fabric/plug_buffered_packets")
		tier[i].Checkers = append(tier[i].Checkers, plugChecker)
	}
	return tier
}

// plugAbortTier fails a plug-forward server migration at the shared
// abort points plus the two plug-mode phases, whose compensations
// (discard plug, remove forward) must leave no residue behind.
func plugAbortTier() []Scenario {
	var out []Scenario
	for _, ph := range []string{"suspend-wbs", "freeze", "final-dump", "finalize",
		"install-plug", "install-forward", "switch-partners"} {
		sc := plugForward(threeHost("plug-abort/"+ph, Server))
		sc.Abort = Abort{Phase: ph}
		out = append(out, sc)
	}
	return out
}

// pipelined switches a client-migration scenario to the page channel's
// pipelined preset: dump, wire, and apply overlap across bounded chunks
// on K streams, zero pages ship header-only, and a content-hash table
// elides dirty-bit false positives. Chunk sequencing enters the
// behaviour hash via the pchan events, as it does in every run.
func pipelined(sc Scenario, chunkPages int) Scenario {
	sc.Migrate.Transfer = runc.TransferPipelined
	sc.Migrate.ChunkPages = chunkPages
	sc.Workload.PageHog = true
	sc.Checkers = append(sc.Checkers, chunkChecker)
	return sc
}

// pipelinedTier pins the channel's exactly-once chunk protocol under
// the fabric faults the monolithic tier survives: loss, reordering, and
// a degraded destination link during the streamed transfer.
func pipelinedTier() []Scenario {
	tier := []Scenario{
		threeHost("pipelined/pipe-clean", Client),
		threeHost("pipelined/pipe-loss-burst", Client,
			Fault{Kind: FaultLoss, Node: "src", Prob: 0.25, At: Warmup, Duration: 2 * time.Millisecond},
			Fault{Kind: FaultLoss, Node: "partner", Prob: 0.25, Phase: "resume", Duration: time.Millisecond},
		),
		threeHost("pipelined/pipe-reorder", Client,
			Fault{Kind: FaultReorder, Node: "partner", Prob: 0.2, Delay: 20 * time.Microsecond, At: Warmup, Duration: 5 * time.Millisecond},
			Fault{Kind: FaultReorder, Node: "src", Prob: 0.2, Delay: 20 * time.Microsecond, Phase: "partial-restore", Duration: 3 * time.Millisecond},
		),
		threeHost("pipelined/pipe-rate-drop", Client,
			// The destination link degrades 10× from partial-restore on,
			// through the streamed pre-copy rounds: chunks stack in the
			// bounded window and the dump throttles to wire speed.
			Fault{Kind: FaultRateDrop, Node: "dst", Rate: 10e9, Phase: "partial-restore", Duration: 10 * time.Millisecond},
		),
	}
	for i := range tier {
		tier[i] = pipelined(tier[i], 8) // small chunks so every round streams several
	}
	return tier
}

// pipelinedAbortTier aborts the streamed transfer mid-chunk: at the
// first and a later chunk of the first streamed round, and of the
// stop-and-copy round — the latter while the destination holds a
// partially applied final image that the compensations must tear down.
func pipelinedAbortTier() []Scenario {
	var out []Scenario
	for _, pt := range []Abort{{Round: "predump", Chunk: 1}, {Round: "predump", Chunk: 3},
		{Round: "final", Chunk: 1}, {Round: "final", Chunk: 2}} {
		// Several chunks per round, so mid-stream faults land.
		sc := pipelined(threeHost(fmt.Sprintf("pipelined-abort/%s#%d", pt.Round, pt.Chunk), Client), 4)
		sc.Abort = pt
		out = append(out, sc)
	}
	return out
}

// tenantTier migrates a service container carrying many tenant sessions
// while faults perturb the fabric AND the tenancy control plane churns.
// The gateway host is "gw" (there is no separate perftest partner);
// fault windows stay inside the 7 × 500 µs retry budget.
func tenantTier() []Scenario {
	mk := func(name string, faults ...Fault) Scenario {
		return Scenario{
			Name:     name,
			Rig:      Rig{Hosts: []string{"src", "dst", "gw"}},
			Workload: Workload{Tenant: true},
			Faults:   faults,
			Checkers: []Checker{tenantChecker},
		}
	}
	return []Scenario{
		mk("tenant/tenant-clean"),
		mk("tenant/tenant-loss",
			Fault{Kind: FaultLoss, Node: "gw", Prob: 0.25, At: Warmup, Duration: 2 * time.Millisecond},
			Fault{Kind: FaultLoss, Node: "src", Prob: 0.25, At: Warmup + time.Millisecond, Duration: 2 * time.Millisecond},
			Fault{Kind: FaultLoss, Node: "gw", Prob: 0.25, Phase: "resume", Duration: time.Millisecond},
		),
		mk("tenant/tenant-freeze-partition",
			// A data-path partition across the checkpoint window while the
			// control plane churns sessions through the same window.
			Fault{Kind: FaultBlackhole, Node: "gw", Phase: "predump", Duration: 2 * time.Millisecond},
			Fault{Kind: FaultBlackhole, Node: "src", Phase: "suspend-wbs", Duration: time.Millisecond},
			Fault{Kind: FaultBlackhole, Node: "gw", Phase: "resume", Duration: time.Millisecond},
		),
	}
}

// concurrentTier runs three overlapping migrations, listed in one
// orchestrator submission under MaxParallel 2. The four-host rig
// exercises the concurrency matrix:
//
//	cli1 on a → srv1 on c; d1/a/cli1-cont migrates cli1 a → b
//	cli2 on b → srv2 on c; d1/b/cli2-cont migrates cli2 b → a
//	cli3 on c → srv3 on a; d1/c/cli3-cont migrates cli3 c → d
//
// so host a is simultaneously migration source (cli1), destination
// (cli2), and partner (cli3), while host c partners two migrations
// (cli1, cli2) and sources a third.
func concurrentTier() []Scenario {
	mk := func(name string, faults ...Fault) Scenario {
		return Scenario{
			Name: name,
			Rig:  Rig{Hosts: []string{"a", "b", "c", "d"}},
			Workload: Workload{Pairs: []Pair{
				{Name: "1", Client: "a", Server: "c", Dst: "b"},
				{Name: "2", Client: "b", Server: "c", Dst: "a"},
				{Name: "3", Client: "c", Server: "a", Dst: "d"},
			}},
			Migrate:  Migrate{Via: Orchestrated, Cap: 2},
			Faults:   faults,
			Checkers: []Checker{ledgerChecker},
		}
	}
	return []Scenario{
		mk("concurrent/concurrent-clean"),
		mustMove(mk("concurrent/concurrent-loss",
			// A loss burst on the shared partner/source node c while all
			// three migrations are in flight, and one on a timed to cli1's
			// resume phase.
			Fault{Kind: FaultLoss, Node: "c", Prob: 0.25, At: Warmup, Duration: 2 * time.Millisecond},
			Fault{Kind: FaultLoss, Node: "a", Prob: 0.25, Phase: "resume", Mig: "d1/a/cli1-cont", Duration: time.Millisecond},
		), "fabric/dropped_frames"),
		mk("concurrent/concurrent-partner-blackhole",
			// c partners cli1 and cli2; blackhole its RDMA port while cli2's
			// migration runs wait-before-stop. 1 ms stays inside the
			// 7 × 500 µs retry budget of any one WR.
			Fault{Kind: FaultBlackhole, Node: "c", Phase: "suspend-wbs", Mig: "d1/b/cli2-cont", Duration: time.Millisecond},
		),
	}
}

// drainTier validates the orchestrator control plane over the two-tier
// topology: a 4-rack × 4-host cluster (the surface the cluster
// determinism test pins), one client per rack-0 host streaming to its
// own server across the spine on rack 3 — so the drain moves every
// container of the rack and each migration has live cross-rack RDMA to
// disturb — and a declarative Drain evacuating rack 0 under
// MaxParallel 2 while rack-uplink faults land mid-drain. The uplink
// faults stay on the RDMA port and inside transport retry budgets for
// the same reason the node-level library does: the simulated TCP
// control/image channels have no retransmit, and RDMA loss longer than
// MaxRetries×RTO kills QPs instead of testing recovery.
func drainTier() []Scenario {
	const racks, hostsPerRack = 4, 4
	mk := func(name string, faults ...Fault) Scenario {
		sc := Scenario{
			Name: name,
			Rig: Rig{Topology: fabric.Topology{
				Racks: racks, HostsPerRack: hostsPerRack,
				// 2:1 rack oversubscription at the paper's 100 Gbps host links.
				UplinkRate: 200e9,
			}},
			Migrate:  Migrate{Via: Orchestrated, Cap: 2},
			Faults:   faults,
			Checkers: []Checker{ledgerChecker, drainChecker},
		}
		for r := 0; r < racks; r++ {
			for h := 0; h < hostsPerRack; h++ {
				sc.Rig.Hosts = append(sc.Rig.Hosts, fmt.Sprintf("r%dh%d", r, h))
			}
		}
		for i := 0; i < hostsPerRack; i++ {
			sc.Workload.Pairs = append(sc.Workload.Pairs, Pair{Name: fmt.Sprint(i),
				Client: fmt.Sprintf("r0h%d", i), Server: fmt.Sprintf("r3h%d", i)})
		}
		return sc
	}
	retry := mk("drain/drain-abort-retry",
		// Node-level loss on a server host while the aborted first
		// attempt rolls back and retries.
		Fault{Kind: FaultLoss, Node: "r3h0", Prob: 0.2, At: Warmup, Duration: 2 * time.Millisecond},
	)
	// The first container's first attempt aborts mid-workflow: the
	// orchestrator must roll it back, back off, and retry.
	retry.Abort = Abort{Phase: "suspend-wbs", Retry: true}
	return []Scenario{
		mk("drain/drain-clean"),
		mustMove(mk("drain/drain-uplink-loss",
			// Lossy spine links on both the drained rack and the server
			// rack while migrations are in flight.
			Fault{Kind: FaultUplinkLoss, Rack: 0, Prob: 0.2, At: Warmup, Duration: 2 * time.Millisecond},
			Fault{Kind: FaultUplinkLoss, Rack: 3, Prob: 0.2, Phase: "transfer", Duration: time.Millisecond},
		), "fabric/uplink_dropped_frames"),
		mk("drain/drain-uplink-partition",
			// The drained rack's spine link blackholes RDMA for 1 ms inside
			// the 7 × 500 µs retry budget — cross-rack traffic stalls and
			// must recover via go-back-N; the image transfer keeps flowing.
			Fault{Kind: FaultUplinkPartition, Rack: 0, Phase: "suspend-wbs", Duration: time.Millisecond},
		),
		retry,
	}
}
