package experiments

import (
	"fmt"
	"time"

	"migrrdma/internal/metrics"
	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
	"migrrdma/internal/sim"
)

// Fig5Result is the partner-side real-time throughput study of §5.5.2:
// a container transmitting 2 MB messages over 16 QPs migrates while the
// partner's NIC counters are sampled every 5 ms.
type Fig5Result struct {
	MigrateSender bool
	Samples       []Sample

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
	sampler := newSampler(r.CL.Host("partner").Dev, 5*time.Millisecond, migrateSender)

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
	res.Samples = sampler.samples
	_, res.BaselineGbps = sampler.MinMax(res.MigStart-80*time.Millisecond, res.MigStart)
	res.ObservedBlackout = sampler.ZeroSpan(res.MigStart, res.MigEnd+20*time.Millisecond)
	min, _ := sampler.MinMaxNonZero(res.MigStart, res.MigEnd)
	res.BrownoutMinGbps = min
	_, res.RecoveredGbps = sampler.MinMax(res.MigEnd+20*time.Millisecond, res.MigEnd+100*time.Millisecond)
	return res, nil
}

// Sample is one throughput measurement.
type Sample struct {
	T    time.Duration
	Gbps float64
}

// sampler periodically reads a byte counter and converts the delta to
// throughput — the paper samples Mellanox ethtool counters at 5 ms
// granularity for Fig. 5 (§5.5.2). It consumes the metrics registry
// (the simulated ethtool counter file) rather than reaching into device
// internals.
type sampler struct {
	sched    *sim.Scheduler
	counter  metrics.Counter
	interval time.Duration

	samples []Sample
	stop    bool
}

// newSampler samples dev's wire byte counter every interval. rx selects
// the receive counter (otherwise transmit).
func newSampler(dev *rnic.Device, interval time.Duration, rx bool) *sampler {
	name := "tx_bytes"
	if rx {
		name = "rx_bytes"
	}
	c := dev.Metrics().Counter("rnic", name, metrics.L("node", dev.Node()))
	return &sampler{sched: dev.Scheduler(), counter: c, interval: interval}
}

// Run samples until Stop is called; spawn it as a proc.
func (s *sampler) Run() {
	last := s.counter.Value()
	for !s.stop {
		s.sched.Sleep(s.interval)
		cur := s.counter.Value()
		gbps := float64(cur-last) * 8 / s.interval.Seconds() / 1e9
		s.samples = append(s.samples, Sample{T: s.sched.Now(), Gbps: gbps})
		last = cur
	}
}

// Stop ends sampling after the current interval.
func (s *sampler) Stop() { s.stop = true }

// MinMax returns the lowest and highest sampled throughput within
// [from, to].
func (s *sampler) MinMax(from, to time.Duration) (min, max float64) {
	return s.minMax(from, to, false)
}

// MinMaxNonZero is MinMax restricted to non-zero samples — the brownout
// floor, excluding the blackout itself.
func (s *sampler) MinMaxNonZero(from, to time.Duration) (min, max float64) {
	return s.minMax(from, to, true)
}

func (s *sampler) minMax(from, to time.Duration, skipZero bool) (min, max float64) {
	first := true
	for _, sm := range s.samples {
		if sm.T < from || sm.T > to {
			continue
		}
		if skipZero && sm.Gbps < 0.5 {
			continue
		}
		if first {
			min, max = sm.Gbps, sm.Gbps
			first = false
			continue
		}
		if sm.Gbps < min {
			min = sm.Gbps
		}
		if sm.Gbps > max {
			max = sm.Gbps
		}
	}
	return min, max
}

// ZeroSpan returns the longest contiguous run of (near-)zero samples in
// [from, to] — the observed communication blackout of Fig. 5.
func (s *sampler) ZeroSpan(from, to time.Duration) time.Duration {
	var longest, run time.Duration
	for _, sm := range s.samples {
		if sm.T < from || sm.T > to {
			continue
		}
		if sm.Gbps < 0.5 {
			run += s.interval
			if run > longest {
				longest = run
			}
		} else {
			run = 0
		}
	}
	return longest
}
