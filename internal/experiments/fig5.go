package experiments

import (
	"fmt"
	"time"

	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
	"migrrdma/internal/trace"
)

// Fig5Result is the partner-side real-time throughput study of §5.5.2:
// a container transmitting 2 MB messages over 16 QPs migrates while the
// partner's NIC counters are sampled every 5 ms.
type Fig5Result struct {
	MigrateSender bool
	Samples       []trace.Sample

	// BaselineGbps is the steady-state throughput before migration.
	BaselineGbps float64
	// BrownoutMinGbps is the lowest non-zero throughput during the
	// migration (pre-copy contention dip).
	BrownoutMinGbps float64
	// ObservedBlackout is the longest zero-throughput span (≈150 ms in
	// the paper).
	ObservedBlackout time.Duration
	// RecoveredGbps is the throughput after restoration completes.
	RecoveredGbps float64

	MigStart, MigEnd time.Duration
	Report           *runc.Report
}

// String summarizes the run.
func (r Fig5Result) String() string {
	side := "receiver"
	if r.MigrateSender {
		side = "sender"
	}
	return fmt.Sprintf("migrate %s: baseline=%.1f Gbps brownout-min=%.1f Gbps blackout=%v recovered=%.1f Gbps",
		side, r.BaselineGbps, r.BrownoutMinGbps, r.ObservedBlackout.Round(time.Millisecond), r.RecoveredGbps)
}

// Fig5 runs the experiment. migrateSender selects Fig. 5(a) (the
// transmitting container migrates) versus 5(b) (the receiving one).
func Fig5(migrateSender bool) (Fig5Result, error) {
	r := NewRig(17, "src", "dst", "partner")
	defer r.Close()
	opts := perftest.Options{Verb: rnic.OpWrite, MsgSize: 2 << 20, QueueDepth: 4, NumQPs: 16, Messages: 0}
	var pair *Pair
	if migrateSender {
		pair = r.StartPair("src", "partner", opts)
	} else {
		pair = r.StartPair("partner", "src", opts)
	}
	// Sample the partner's NIC byte counters from the metrics registry
	// (the simulated ethtool read): bytes received when the sender
	// migrates, bytes transmitted when the receiver migrates.
	sampler := trace.NewSampler(r.CL.Host("partner").Dev, 5*time.Millisecond, migrateSender)

	res := Fig5Result{MigrateSender: migrateSender}
	r.CL.Sched.Go("sampler", sampler.Run)
	err := r.Run(Horizon, func() (err error) {
		pair.Client.WaitReady()
		// Steady state for a while before migrating.
		r.CL.Sched.Sleep(100 * time.Millisecond)
		res.MigStart = r.CL.Sched.Now()
		cont := pair.ClientCont
		if !migrateSender {
			cont = pair.ServerCont
		}
		if res.Report, err = r.Migrate(cont, "src", "dst", runc.DefaultMigrateOptions()); err != nil {
			return err
		}
		res.MigEnd = r.CL.Sched.Now()
		// Post-migration steady state.
		r.CL.Sched.Sleep(100 * time.Millisecond)
		sampler.Stop()
		pair.Stop()
		return nil
	})
	if err != nil {
		return res, fmt.Errorf("fig5 sender=%v: %w", migrateSender, err)
	}
	res.Samples = sampler.Samples()
	_, res.BaselineGbps = sampler.MinMax(res.MigStart-80*time.Millisecond, res.MigStart)
	res.ObservedBlackout = sampler.ZeroSpan(res.MigStart, res.MigEnd+20*time.Millisecond)
	min, _ := sampler.MinMaxNonZero(res.MigStart, res.MigEnd)
	res.BrownoutMinGbps = min
	_, res.RecoveredGbps = sampler.MinMax(res.MigEnd+20*time.Millisecond, res.MigEnd+100*time.Millisecond)
	return res, nil
}
