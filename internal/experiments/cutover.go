package experiments

import (
	"fmt"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
)

// This file is the cutover-mode comparison: the same server-side live
// migration under an identical latency-mode SEND workload, once with
// the go-back-N cutover (blackout traffic bounces off the restored
// service and is recovered by retransmission) and once with the
// plug-and-forward cutover (blackout traffic waits in the destination
// plug and is flushed in arrival order). The contrast the experiment
// exists to show: plug-forward removes every cutover retransmission
// (and the wire bytes they burn) and trims the latency tail that
// go-back-N's RNR/RTO quantization leaves behind.

// CutoverRow is one (mode, message size, QP count) measurement.
type CutoverRow struct {
	Mode    runc.CutoverMode
	MsgSize int
	QPs     int

	Samples int
	P50     time.Duration
	P99     time.Duration
	Max     time.Duration
	// Blackout is the migration's service blackout.
	Blackout time.Duration

	// Retransmitted counts genuine go-back-N recovery on the data path;
	// Duplicated counts PSN-window rejects of frames delivered twice.
	Retransmitted int64
	Duplicated    int64
	// WireBytes is the cluster-wide rnic tx_bytes total: payload plus
	// every retransmission burned on the wire.
	WireBytes int64
	// PlugFlushed / Forwarded are plug-mode activity counters (zero in
	// go-back-N mode).
	PlugFlushed int64
	Forwarded   int64
}

// String renders one row.
func (r CutoverRow) String() string {
	return fmt.Sprintf("%-12s msg=%-6d qps=%d  ops=%-5d p50=%-9v p99=%-9v max=%-9v retx=%-4d dup=%-4d wire=%-9d flushed=%-3d fwd=%d",
		r.Mode, r.MsgSize, r.QPs, r.Samples,
		r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond),
		r.Retransmitted, r.Duplicated, r.WireBytes, r.PlugFlushed, r.Forwarded)
}

// cutoverSeed is the seed the comparison runs at. The rig draws no
// fault, so the rows do not depend on it; both modes run the
// byte-identical workload and migration timeline up to the cutover.
const cutoverSeed = 61

// RunCutoverSeeded measures one cutover configuration.
func RunCutoverSeeded(mode runc.CutoverMode, msgSize, qps, messages int, seed int64) (row CutoverRow, err error) {
	defer wrapErr(&err, "cutover %v msg=%d qps=%d seed=%d", mode, msgSize, qps, seed)
	mopts := runc.DefaultMigrateOptions()
	mopts.Cutover = mode
	err = migrateLatencyServer(seed, msgSize, qps, messages, mopts, false, func(r *Rig, pair *Pair, rep *runc.Report) {
		m := r.CL.Metrics
		row = CutoverRow{
			Mode: mode, MsgSize: msgSize, QPs: qps,
			Samples:       len(pair.Client.Stats.LatSamples),
			P50:           pair.Client.Stats.LatPercentile(50),
			P99:           pair.Client.Stats.LatPercentile(99),
			Max:           pair.Client.Stats.LatPercentile(100),
			Blackout:      rep.ServiceBlackout,
			Retransmitted: m.Sum("rnic", "retx_packets"),
			Duplicated:    m.Sum("rnic", "duplicated_packets"),
			WireBytes:     m.Sum("rnic", "tx_bytes"),
			PlugFlushed:   int64(rep.PlugFlushed),
			Forwarded:     m.Sum("rnic", "forwarded_packets"),
		}
	})
	return row, err
}

// migrateLatencyServer is the run the cutover and transfer comparisons
// both measure: a latency-mode SEND pair whose SERVER moves src → dst
// under mopts mid-stream while the client keeps firing from the partner
// host, carrying the page hog when hog is set. read sees the finished
// run before the rig closes.
func migrateLatencyServer(seed int64, msgSize, qps, messages int, mopts runc.MigrateOptions, hog bool,
	read func(r *Rig, pair *Pair, rep *runc.Report)) error {
	cfg := cluster.FastCheckpointTestbed(seed)
	// rnr_retry=7 semantics: retry through the blackout instead of
	// erroring out — go-back-N's whole recovery story depends on it,
	// and the retries are exactly the cost the comparison measures.
	cfg.NIC.MaxRetries = rnic.UnlimitedRetries
	r := NewRigCfg(cfg, "src", "dst", "partner")
	defer r.Close()
	opts := perftest.Options{
		Verb: rnic.OpSend, MsgSize: msgSize, NumQPs: qps, Messages: messages,
		LatencyMode: true, PostGap: 250 * time.Microsecond,
		// Deep receive ring, as a real latency service would provision:
		// in plug-forward mode the partners resume before the thaw
		// completes, and posted receives must absorb that window instead
		// of converting it into RNR flow control (which would show up as
		// retransmissions that have nothing to do with the cutover).
		RecvDepth: 64,
	}
	pair := r.StartPair("partner", "src", opts)
	stopHog := func() {}
	if hog {
		var err error
		if stopHog, err = pageHog.Start(pair.ServerCont.Procs[0]); err != nil {
			return err
		}
	}
	var rep *runc.Report
	err := r.Run(Horizon, func() (err error) {
		pair.Client.WaitReady()
		r.CL.Sched.Sleep(2 * time.Millisecond)
		if rep, err = r.Migrate(pair.ServerCont, "src", "dst", mopts); err != nil {
			return err
		}
		pair.Client.Wait() // the bounded message count drains
		stopHog()
		pair.Server.Stop()
		return nil
	})
	if err != nil {
		return err
	}
	if errs := pair.Errors(); len(errs) > 0 {
		return fmt.Errorf("%d workload errors, first %s", len(errs), errs[0])
	}
	read(r, pair, rep)
	return nil
}

// CutoverComparison sweeps both cutover modes over the given message
// sizes and QP counts. Rows come out grouped by (size, qps) with the
// go-back-N row directly before its plug-forward counterpart.
func CutoverComparison(sizes, qpCounts []int, messages int) ([]CutoverRow, error) {
	modes := []runc.CutoverMode{runc.CutoverGoBackN, runc.CutoverPlugForward}
	return sweep(len(sizes)*len(qpCounts)*len(modes), func(i int) (CutoverRow, error) {
		return RunCutoverSeeded(modes[i%2], sizes[i/2/len(qpCounts)], qpCounts[i/2%len(qpCounts)], messages, cutoverSeed)
	})
}
