package main

// metric declares one benchmark metric. BENCHMARK.json at the root of
// the repository lists the same names; bench_test.go checks that the
// two agree.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline's median by which the metric may
	// get worse before -compare calls it a regression; 0 means not gated.
	Bound float64
}

// Units. Virtual-time results carry a sim_ prefix: they are outputs of
// the modelled system, repeat exactly at a fixed seed, and must not be
// read as wall-clock measurements.
const (
	uSimMS = "sim_ms"
	uSimUS = "sim_us"
)

// endToEnd are the metrics of an untraced run, reported on every
// workload.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"host_s", "s", "lower", 0.25},
	{"allocs_per_rep", "count", "lower", 0.02},
	{"alloc_mb_per_rep", "MB", "lower", 0.05},
	{"blackout_ms", uSimMS, "lower", 0.01},
}

// perLayer are the metrics of a traced run. The first block holds the
// simulated results that only some workloads produce (a workload whose
// row has no such field reports 0); they keep the bounds -compare gates
// them by. The rest are single-layer probes and row fields, ungated.
var perLayer = []metric{
	{"blackout_tail_ms", uSimMS, "lower", 0.01},
	{"client_p99_us", uSimUS, "lower", 0.01},
	{"wire_bytes", "bytes", "lower", 0.01},
	{"migration_total_ms", uSimMS, "lower", 0.01},
	{"wbs_us", uSimUS, "lower", 0.01},
	{"drain_window_ms", uSimMS, "lower", 0.01},
	// It is 0 today, and -compare reads any rise from 0 as 100 %.
	{"failed_ratio", "ratio", "lower", 0.01},
	{"trace_overhead_pct", "%", "lower", 0},

	{"sim.dispatch_ns", "ns", "lower", 0},
	{"sim.sleep_ns", "ns", "lower", 0},
	{"sim.timer_fire_ns", "ns", "lower", 0},
	{"sim.timer_cancel_ns", "ns", "lower", 0},
	{"sim.allocs_per_dispatch", "count", "lower", 0},

	{"fabric.send_flat_ns", "ns", "lower", 0},
	{"fabric.send_xrack_ns", "ns", "lower", 0},
	{"fabric.allocs_per_frame", "count", "lower", 0},
	{"fabric.spine_mb", "MB", "lower", 0},
	{"fabric.plug_flushed", "count", "lower", 0},

	{"rnic.engine_pkts_per_s_2k", "1/s", "higher", 0},
	{"rnic.engine_pkts_per_s_16k", "1/s", "higher", 0},
	{"rnic.allocs_per_msg", "count", "lower", 0},
	{"rnic.retx_pkts", "count", "lower", 0},
	{"rnic.dup_pkts", "count", "lower", 0},
	{"rnic.forwarded_pkts", "count", "lower", 0},

	{"verbs.post_poll_ns", "ns", "lower", 0},
	{"verbs.allocs_per_op", "count", "lower", 0},

	{"core.translate_send_ns", "ns", "lower", 0},
	{"core.translate_write_ns", "ns", "lower", 0},
	{"core.translate_read_ns", "ns", "lower", 0},
	{"core.translate_recv_ns", "ns", "lower", 0},
	{"core.translate_cqe_ns", "ns", "lower", 0},
	{"core.wbs_over_theory", "ratio", "lower", 0},
	{"core.comm_blackout_ms", uSimMS, "lower", 0},
	{"core.restore_rdma_ms", uSimMS, "lower", 0},
	{"core.replay_rdma_us", uSimUS, "lower", 0},

	{"mem.write_ns_per_page", "ns", "lower", 0},
	{"mem.dirty_scan_ns_per_page", "ns", "lower", 0},

	{"criu.dump_pages_per_host_s", "1/s", "higher", 0},
	{"criu.apply_pages_per_host_s", "1/s", "higher", 0},
	{"criu.dump_others_ms", uSimMS, "lower", 0},
	{"criu.full_restore_ms", uSimMS, "lower", 0},

	{"pagechan.stream_pages_per_host_s", "1/s", "higher", 0},
	{"pagechan.stream_sim_mb_per_s", "MB/sim_s", "higher", 0},
	{"pagechan.final_wire_bytes", "bytes", "lower", 0},
	{"pagechan.pages_elided", "count", "higher", 0},
	{"pagechan.rounds", "count", "lower", 0},
	{"pagechan.resend_ratio", "ratio", "lower", 0},

	{"oob.call_ns", "ns", "lower", 0},
	{"oob.call_sim_us", uSimUS, "lower", 0},

	{"runc.transfer_us", uSimUS, "lower", 0},
	{"runc.precopy_rounds", "count", "lower", 0},
	{"runc.idle_migrate_host_ms", "ms", "lower", 0},

	{"migmgr.queue_wait_ms", uSimMS, "lower", 0},

	{"orchestrator.place_ns_128", "ns", "lower", 0},
	{"orchestrator.place_ns_1024", "ns", "lower", 0},
	{"orchestrator.same_rack_ratio", "ratio", "higher", 0},
	{"orchestrator.slo_misses", "count", "lower", 0},
	{"orchestrator.migrations", "count", "higher", 0},

	{"tenant.ops_acked", "count", "higher", 0},
	{"tenant.drain_after_us", uSimUS, "lower", 0},
	{"tenant.image_pages", "count", "lower", 0},
}

// metricByName finds a declared metric.
func metricByName(name string) (metric, bool) {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}
