package main

import (
	"fmt"
	"time"

	"migrrdma/internal/experiments"
	"migrrdma/internal/runc"
)

// row is what one rep of a workload returns: the values of the declared
// metrics its result carries, the virtual-time phases the traced run
// draws under the rep, and the number of migrations that failed.
type row struct {
	vals   map[string]float64
	phases []phase
	failed int
}

// phase is one named virtual-time duration of a migration.
type phase struct {
	name string
	d    time.Duration
}

// workload is one fixed migration scenario. Each is a single call into
// a seeded entry point of internal/experiments, so the benchmark keeps
// no rig of its own.
type workload struct {
	name string
	why  string
	// warm reps run untimed before the first timed rep; their host time
	// is setup_s. simReps is the fixed number of timed reps the simulated
	// medians are taken over, so that they do not depend on how many reps
	// the host fitted into the measuring time. traceReps is how many reps
	// a traced run times with and without spans.
	warm, simReps, traceReps int
	// blocks, when positive, measures the workload as that many runs of
	// simReps timed reps, each in a process of its own, and reports the
	// medians over them. Every rep leaves its parked procs behind, and
	// they pin the rep's whole rig (about 1 MB for a three-host rig); a
	// workload that fits thousands of reps into the measuring time would
	// otherwise time a growing heap.
	blocks int
	// ops is the number of migrations one rep attempts.
	ops int
	run func(seed int64) (row, error)
	// warmRun, when set, replaces run during warm-up.
	warmRun func(seed int64) error
	// tailAcrossReps makes blackout_tail_ms the tail of the per-rep
	// blackouts instead of a field of the row.
	tailAcrossReps bool
	// repeatable asks for the first seed to be run twice and the two rows
	// compared.
	repeatable bool
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func bwSend16(seed int64) (row, error) {
	r, err := experiments.Fig4Seeded(16, 4096, 1, seed)
	if err != nil {
		return row{}, err
	}
	over := float64(r.WBS) / float64(r.Theory)
	out := row{
		vals: map[string]float64{
			"blackout_ms":           ms(r.Blackout),
			"wbs_us":                us(r.WBS),
			"core.wbs_over_theory":  over,
			"core.comm_blackout_ms": ms(r.Comm),
		},
		phases: []phase{{"wait-before-stop", r.WBS}, {"comm-blackout", r.Comm}, {"blackout", r.Blackout}},
	}
	// inflight_bytes/link_rate is the one reference the repository
	// holds for a simulated result; the ratio is the model's error.
	if over < 0.9 || over > 1.2 {
		return out, fmt.Errorf("wbs/theory = %.3f, want within [0.9, 1.2]", over)
	}
	return out, nil
}

func fig3Send16(int64) (row, error) {
	r, err := experiments.Fig3(16, true, true)
	if err != nil {
		return row{}, err
	}
	return row{
		vals: map[string]float64{
			"blackout_ms":          ms(r.Blackout),
			"criu.dump_others_ms":  ms(r.DumpOthers),
			"criu.full_restore_ms": ms(r.FullRestore),
			"runc.transfer_us":     us(r.Transfer),
			"core.restore_rdma_ms": ms(r.RestoreRDMA),
		},
		phases: []phase{
			{"dump-rdma", r.DumpRDMA}, {"dump-others", r.DumpOthers}, {"transfer", r.Transfer},
			{"restore-rdma", r.RestoreRDMA}, {"full-restore", r.FullRestore},
		},
	}, nil
}

const (
	cutoverQPs, cutoverMessages = 2, 50
	pagehogQPs, pagehogMessages = 2, 400
	tenancySessions             = 2000
	// tenancyOpsPerSession is two bursts of two operations, one before
	// and one after the migration.
	tenancyOpsPerSession = 4
)

func cutover(mode runc.CutoverMode) func(int64) (row, error) {
	return func(seed int64) (row, error) {
		r, err := experiments.RunCutoverSeeded(mode, 8192, cutoverQPs, cutoverMessages, seed)
		if err != nil {
			return row{}, err
		}
		out := row{
			vals: map[string]float64{
				"blackout_ms":         ms(r.Blackout),
				"client_p99_us":       us(r.P99),
				"wire_bytes":          float64(r.WireBytes),
				"rnic.retx_pkts":      float64(r.Retransmitted),
				"rnic.dup_pkts":       float64(r.Duplicated),
				"rnic.forwarded_pkts": float64(r.Forwarded),
				"fabric.plug_flushed": float64(r.PlugFlushed),
			},
			phases: []phase{{"blackout", r.Blackout}},
		}
		if want := cutoverQPs * cutoverMessages; r.Samples != want {
			return out, fmt.Errorf("%d latency samples, want %d", r.Samples, want)
		}
		if mode == runc.CutoverPlugForward && r.Retransmitted != 0 {
			return out, fmt.Errorf("plug-forward retransmitted %d packets, want 0", r.Retransmitted)
		}
		return out, nil
	}
}

func pagehog(mode runc.TransferMode) func(int64) (row, error) {
	return func(seed int64) (row, error) {
		r, err := experiments.RunPageChanSeeded(mode, 8192, pagehogQPs, pagehogMessages, seed)
		if err != nil {
			return row{}, err
		}
		out := row{
			vals: map[string]float64{
				"blackout_ms":        ms(r.Blackout),
				"client_p99_us":      us(r.P99),
				"wire_bytes":         float64(r.WireBytes),
				"migration_total_ms": ms(r.Total),
			},
			phases: []phase{{"total", r.Total}, {"blackout", r.Blackout}},
		}
		if mode == runc.TransferPipelined {
			out.vals["pagechan.final_wire_bytes"] = float64(r.FinalWireBytes)
			out.vals["pagechan.pages_elided"] = float64(r.PagesElided)
			out.vals["pagechan.rounds"] = float64(r.Rounds)
			out.vals["pagechan.resend_ratio"] = float64(r.PagesTransferred) / float64(r.DistinctPages)
		} else {
			out.vals["runc.precopy_rounds"] = float64(r.Rounds)
		}
		if want := pagehogQPs * pagehogMessages; r.Samples != want {
			return out, fmt.Errorf("%d latency samples, want %d", r.Samples, want)
		}
		return out, nil
	}
}

func tenancy2000(seed int64) (row, error) {
	r, err := experiments.RunTenancyTransferSeeded(runc.CutoverPlugForward, runc.TransferPipelined, tenancySessions, seed)
	if err != nil {
		return row{}, err
	}
	out := row{
		vals: map[string]float64{
			"blackout_ms":               ms(r.Blackout),
			"wire_bytes":                float64(r.WireBytes),
			"migration_total_ms":        ms(r.Total),
			"core.replay_rdma_us":       us(r.ReplayRDMA),
			"pagechan.final_wire_bytes": float64(r.FinalWire),
			"tenant.ops_acked":          float64(r.Acked),
			"tenant.drain_after_us":     us(r.DrainAfter),
			"tenant.image_pages":        float64(r.Pages),
		},
		phases: []phase{{"total", r.Total}, {"blackout", r.Blackout}, {"drain-after", r.DrainAfter}},
	}
	if want := int64(tenancyOpsPerSession * tenancySessions); r.Acked != want {
		return out, fmt.Errorf("%d tenant ops acked, want %d", r.Acked, want)
	}
	return out, nil
}

func drainXRack(seed int64) (row, error) {
	r, err := experiments.RunDrainExpSeeded(experiments.DrainWholeRacks, 8, seed)
	if err != nil {
		return row{}, err
	}
	out := row{
		vals: map[string]float64{
			"blackout_ms":                  ms(r.P50),
			"blackout_tail_ms":             ms(r.P99),
			"wire_bytes":                   float64(r.WireBytes),
			"drain_window_ms":              ms(r.Elapsed),
			"fabric.spine_mb":              float64(r.SpineBytes) / 1e6,
			"orchestrator.same_rack_ratio": float64(r.SameRackDst) / float64(r.Migrations),
			"orchestrator.slo_misses":      float64(r.SLOMisses),
			"orchestrator.migrations":      float64(r.Migrations),
		},
		phases: []phase{{"drain-window", r.Elapsed}, {"blackout-p50", r.P50}, {"blackout-p99", r.P99}},
		failed: r.SLOMisses,
	}
	if r.Migrations != experiments.DrainExpEvacuated {
		return out, fmt.Errorf("%d migrations, want %d", r.Migrations, experiments.DrainExpEvacuated)
	}
	if r.SLOMisses != 0 {
		return out, fmt.Errorf("%d migrations missed the blackout SLO", r.SLOMisses)
	}
	return out, nil
}

// workloads is the fixed set, in the order a full run takes them. The
// why strings are copied into BENCHMARK.json.
var workloads = []workload{
	{
		name: "bw-send16",
		why:  "Line-rate 16-QP SEND sender on the fast-checkpoint testbed: sim, fabric, rnic, verbs and core translation do nearly all host work (Fig. 4a regime).",
		warm: 1, simReps: 3, traceReps: 1, ops: 1, run: bwSend16,
	},
	{
		name: "fig3-send16",
		why:  "The paper's headline: the same data-plane mix under the default CRIU cost model, so the blackout is criu DumpOthers and FullRestore, not the wire.",
		warm: 1, simReps: 1, traceReps: 1, ops: 1, run: fig3Send16,
		// Fig3 takes ten host seconds, so it warms up on the cheaper
		// run of the same data-plane mix.
		warmRun: func(seed int64) error { _, err := bwSend16(seed); return err },
	},
	{
		name: "cutover-gbn",
		why:  "Latency-mode server migrated mid-stream, about 100 messages: rig build, runc phases, core daemon and oob dominate; cutover recovered by RC retransmission.",
		warm: 100, simReps: 500, blocks: 5, traceReps: 50, ops: 1, run: cutover(runc.CutoverGoBackN),
		tailAcrossReps: true, repeatable: true,
	},
	{
		name: "cutover-plug",
		why:  "Same layers used differently: fabric plug buffer and rnic forward tunnel instead of retransmission; a gain for one cutover that costs the other shows here.",
		warm: 100, simReps: 500, blocks: 5, traceReps: 50, ops: 1, run: cutover(runc.CutoverPlugForward),
		tailAcrossReps: true, repeatable: true,
	},
	{
		name: "pagehog-mono",
		why:  "Page-hog working set over the monolithic transfer: mem dirty tracking, criu dump and apply and the image transfer dominate; pagechan is bypassed.",
		warm: 3, simReps: 10, traceReps: 3, ops: 1, run: pagehog(runc.TransferMonolithic),
	},
	{
		name: "pagehog-pipe",
		why:  "Same memory layers through pagechan streams, elision and the adaptive round controller; both transfer paths must be on the ledger before they are merged.",
		warm: 3, simReps: 10, traceReps: 3, ops: 1, run: pagehog(runc.TransferPipelined),
	},
	{
		name: "tenancy-2000",
		why:  "2000 tenant sessions with plug-forward and pipelined transfer both on: the only workload where tenant does real work and the two opt-in modes interact.",
		warm: 1, simReps: 3, traceReps: 1, ops: 1, run: tenancy2000,
	},
	{
		name: "drain-xrack",
		why:  "32 of 128 hosts, 2048 QPs, every move over the spine: orchestrator, migmgr admission, topology fabric.Send and thousands of parked procs in sim.",
		warm: 1, simReps: 3, traceReps: 1, ops: experiments.DrainExpEvacuated, run: drainXRack,
	},
}

func workloadByName(name string) (int, *workload) {
	for i := range workloads {
		if workloads[i].name == name {
			return i, &workloads[i]
		}
	}
	return -1, nil
}
