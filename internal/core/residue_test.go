package core_test

import (
	"errors"
	"testing"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/core"
	"migrrdma/internal/experiments"
	"migrrdma/internal/metrics"
	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
)

// TestMigrationLeavesNoPerMigrationState drives whole migrations — one
// committed and one aborted, under each cutover mode — and requires
// every daemon's census to be zero on every host afterwards: exactly one
// side owns the connection state once a migration is over, so no
// migration record, staged restore, spare, suspended QP, plug,
// forwarding rule or stashed n_sent may survive it. (The partner-WBS
// result map this test was written against leaked one entry per
// committed migration; it had no reader and is gone.)
func TestMigrationLeavesNoPerMigrationState(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cutover runc.CutoverMode
		abortAt string
	}{
		{"commit/go-back-n", runc.CutoverGoBackN, ""},
		{"commit/plug-forward", runc.CutoverPlugForward, ""},
		{"abort/go-back-n", runc.CutoverGoBackN, "finalize"},
		{"abort/plug-forward", runc.CutoverPlugForward, "install-forward"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := experiments.NewRigCfg(cluster.FastCheckpointTestbed(5), "src", "dst", "partner")
			sched := r.CL.Sched
			// The server migrates, so "partner" runs the partner-side
			// handlers and both cutover modes exercise their stashes.
			pair := r.StartPair("partner", "src", perftest.Options{
				Verb: rnic.OpSend, MsgSize: 2048, QueueDepth: 8, NumQPs: 2, RecvDepth: 64,
				PostGap: 50 * time.Microsecond,
			})
			opts := runc.DefaultMigrateOptions()
			opts.Cutover = tc.cutover
			m := &runc.Migrator{C: pair.ServerCont, Dst: r.CL.Host("dst"),
				Plug: core.NewPlugin(r.Daemons["src"], r.Daemons["dst"]), Opts: opts}
			injected := errors.New("injected")
			r.CL.Metrics.Listen(func(e metrics.Event) error {
				if e.Kind == "stage" && e.Note == tc.abortAt {
					return injected
				}
				return nil
			})
			var err error
			finished := false
			sched.Go("driver", func() {
				pair.Client.WaitReady()
				sched.Sleep(2 * time.Millisecond)
				_, err = m.Migrate()
				sched.Sleep(5 * time.Millisecond) // source reclaim runs off the critical path
				pair.Client.Stop()
				pair.Client.Wait()
				pair.Server.Stop()
				finished = true
				sched.Stop()
			})
			sched.RunFor(time.Second)
			if !finished {
				t.Fatalf("run hung in stage %q", m.Stage)
			}
			if (tc.abortAt == "") != (err == nil) || (err != nil && !errors.Is(err, injected)) {
				t.Fatalf("migration error = %v, abort injected at %q", err, tc.abortAt)
			}
			for _, host := range r.CL.Names() {
				if c := r.Daemons[host].Census(); c != (core.Census{}) {
					t.Errorf("%s: census %+v, want zero", host, c)
				}
			}
		})
	}
}
