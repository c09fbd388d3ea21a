package experiments

import (
	"fmt"
	"time"

	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
)

// LatencyProfile is the per-operation view of Fig. 5: a latency-mode
// workload (one outstanding 64 B WRITE, ib_write_lat-style) runs across
// a live migration. Steady-state operations stay in the microsecond
// range; the operation that straddles the blackout takes approximately
// the blackout.
type LatencyProfile struct {
	Samples int
	P50     time.Duration
	P99     time.Duration
	Max     time.Duration
	// Blackout is the migration's service blackout for comparison with
	// Max.
	Blackout time.Duration
}

// String renders the profile.
func (l LatencyProfile) String() string {
	return fmt.Sprintf("ops=%d p50=%v p99=%v max=%v (service blackout %v)",
		l.Samples, l.P50.Round(time.Microsecond), l.P99.Round(time.Microsecond),
		l.Max.Round(time.Millisecond), l.Blackout.Round(time.Millisecond))
}

// LatencyAcrossMigration measures the profile.
func LatencyAcrossMigration() (LatencyProfile, error) {
	r := NewRig(41, "src", "dst", "partner")
	defer r.Close()
	opts := perftest.Options{Verb: rnic.OpWrite, MsgSize: 64, NumQPs: 1, Messages: 0,
		LatencyMode: true, PostGap: 200 * time.Microsecond}
	pair := r.StartPair("src", "partner", opts)
	var rep *runc.Report
	err := r.Run(Horizon, func() (err error) {
		pair.Client.WaitReady()
		r.CL.Sched.Sleep(10 * time.Millisecond)
		if rep, err = r.Migrate(pair.ClientCont, "src", "dst", runc.DefaultMigrateOptions()); err != nil {
			return err
		}
		r.CL.Sched.Sleep(10 * time.Millisecond)
		pair.Stop()
		return nil
	})
	if err != nil {
		return LatencyProfile{}, fmt.Errorf("latency: %w", err)
	}
	st := &pair.Client.Stats
	return LatencyProfile{
		Samples:  len(st.LatSamples),
		P50:      st.LatPercentile(50),
		P99:      st.LatPercentile(99),
		Max:      st.LatPercentile(100),
		Blackout: rep.ServiceBlackout,
	}, nil
}
